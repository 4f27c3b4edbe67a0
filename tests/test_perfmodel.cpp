// Tests for the analytical scaling model: self-consistency of the
// checked-in kernel facts with live compiler derivation, calibration
// anchors, the qualitative claims of the paper's evaluation section
// (mode orderings, crossovers, efficiency trends, weak-scaling flatness),
// and the golden scaling tables and roofline points in tests/golden.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json_check.h"
#include "perfmodel/paper_data.h"
#include "perfmodel/scaling.h"

namespace {

using namespace jitfd::perf;  // NOLINT: test file.
namespace ir = jitfd::ir;

TEST(KernelSpec, CheckedInFactsMatchLiveDerivation) {
  // The hard-coded flop tables and communication structure must equal
  // what the compiler derives — they are a cache, not an assumption.
  for (const KernelSpec& cached : all_kernel_specs(false)) {
    const DerivedFacts live = derive_facts(cached.name);
    EXPECT_EQ(cached.flops_by_so, live.flops_by_so) << cached.name;
    EXPECT_EQ(cached.comm_fields, live.comm_fields) << cached.name;
    EXPECT_EQ(cached.nspots, live.nspots) << cached.name;
  }
}

TEST(KernelSpec, FlopInterpolationIsMonotone) {
  const KernelSpec s = tti_spec();
  EXPECT_DOUBLE_EQ(s.flops_per_point(8), 960.0);
  EXPECT_GT(s.flops_per_point(10), s.flops_per_point(8));
  EXPECT_LT(s.flops_per_point(10), s.flops_per_point(12));
}

TEST(KernelSpec, WorkingSetsMatchPaper) {
  EXPECT_EQ(acoustic_spec().fields, 5);
  EXPECT_EQ(tti_spec().fields, 12);
  EXPECT_EQ(elastic_spec().fields, 22);
  EXPECT_EQ(viscoelastic_spec().fields, 36);
}

struct Anchor {
  const char* kernel;
  Target target;
  double single_unit_gpts;  // Paper 1-unit SDO-8 throughput.
  double eff128;            // Paper 128-unit SDO-8 basic efficiency.
};

// Paper Tables IV/VIII/XII/XVI (CPU) and XX/XXIV/XXVIII/XXXII (GPU),
// single-unit column and the efficiency quoted in Section IV-D.
const Anchor kAnchors[] = {
    {"acoustic", Target::Cpu, 12.7, 0.64},
    {"elastic", Target::Cpu, 1.7, 0.46},
    {"tti", Target::Cpu, 3.5, 0.69},
    {"viscoelastic", Target::Cpu, 1.15, 0.46},
    {"acoustic", Target::Gpu, 31.2, 0.37},
    {"elastic", Target::Gpu, 5.2, 0.246},
    {"tti", Target::Gpu, 8.5, 0.423},
    {"viscoelastic", Target::Gpu, 2.8, 0.30},
};

KernelSpec spec_of(const std::string& name) {
  for (KernelSpec s : all_kernel_specs()) {
    if (s.name == name) {
      return s;
    }
  }
  throw std::runtime_error("unknown kernel");
}

TEST(ScalingModel, SingleUnitThroughputMatchesPaperWithinTenPercent) {
  for (const Anchor& a : kAnchors) {
    const MachineSpec mach =
        a.target == Target::Cpu ? archer2_node() : tursa_a100();
    const ScalingModel m(mach, spec_of(a.kernel), a.target);
    const auto pt = m.strong(1, 8, ir::MpiMode::None);
    EXPECT_NEAR(pt.gpts, a.single_unit_gpts, 0.10 * a.single_unit_gpts)
        << a.kernel << (a.target == Target::Cpu ? " cpu" : " gpu");
  }
}

TEST(ScalingModel, Efficiency128MatchesPaperAnchors) {
  for (const Anchor& a : kAnchors) {
    const MachineSpec mach =
        a.target == Target::Cpu ? archer2_node() : tursa_a100();
    const ScalingModel m(mach, spec_of(a.kernel), a.target);
    const auto pt = m.strong(128, 8, ir::MpiMode::Basic);
    EXPECT_NEAR(pt.efficiency, a.eff128, 0.05)
        << a.kernel << (a.target == Target::Cpu ? " cpu" : " gpu");
  }
}

TEST(ScalingModel, EfficiencyDecreasesMonotonicallyWithScale) {
  for (const KernelSpec& k : all_kernel_specs()) {
    const ScalingModel m(archer2_node(), k, Target::Cpu);
    double prev = 1.1;
    for (const int u : {2, 8, 32, 128}) {
      const auto pt = m.strong(u, 8, ir::MpiMode::Basic);
      EXPECT_LT(pt.efficiency, prev + 1e-9) << k.name << " u=" << u;
      prev = pt.efficiency;
    }
  }
}

TEST(ScalingModel, TtiScalesBestAcousticBeatsElastic) {
  // Paper Section IV-D: TTI has the highest computation-to-communication
  // ratio and the highest strong-scaling efficiency; elastic and
  // viscoelastic the lowest.
  auto eff = [](const char* name) {
    const ScalingModel m(archer2_node(), spec_of(name), Target::Cpu);
    return m.strong(128, 8, ir::MpiMode::Basic).efficiency;
  };
  EXPECT_GT(eff("tti"), eff("acoustic"));
  EXPECT_GT(eff("acoustic"), eff("elastic"));
  EXPECT_GE(eff("elastic"), eff("viscoelastic") - 0.02);
}

TEST(ScalingModel, AcousticModeCrossoverWithSpaceOrder) {
  // Paper Tables III vs VI: basic wins the low-order acoustic regime
  // (message rate binds diagonal's 26 small messages); diagonal wins at
  // SDO 16 (volume binds, single-step batching helps).
  const ScalingModel m(archer2_node(), acoustic_spec(), Target::Cpu);
  const double basic4 = m.strong(128, 4, ir::MpiMode::Basic).gpts;
  const double diag4 = m.strong(128, 4, ir::MpiMode::Diagonal).gpts;
  EXPECT_GT(basic4, diag4);
  const double basic16 = m.strong(128, 16, ir::MpiMode::Basic).gpts;
  const double diag16 = m.strong(128, 16, ir::MpiMode::Diagonal).gpts;
  EXPECT_GT(diag16, basic16);
}

TEST(ScalingModel, FullModeIsWorstForTtiAtScale) {
  // Paper Section IV-D: "there are better candidates than full mode for
  // TTI kernels" — the remainder cost outweighs the hidden communication.
  const ScalingModel m(archer2_node(), tti_spec(), Target::Cpu);
  for (const int so : {4, 8, 12, 16}) {
    const double full = m.strong(128, so, ir::MpiMode::Full).gpts;
    const double basic = m.strong(128, so, ir::MpiMode::Basic).gpts;
    const double diag = m.strong(128, so, ir::MpiMode::Diagonal).gpts;
    EXPECT_LT(full, std::max(basic, diag)) << "so=" << so;
  }
}

TEST(ScalingModel, ElasticDiagonalBeatsBasicAtHighOrder) {
  // Paper Tables VIII-X: diagonal leads elastic from SDO 8 upward.
  const ScalingModel m(archer2_node(), elastic_spec(), Target::Cpu);
  for (const int so : {8, 12, 16}) {
    EXPECT_GT(m.strong(128, so, ir::MpiMode::Diagonal).gpts,
              m.strong(128, so, ir::MpiMode::Basic).gpts)
        << "so=" << so;
  }
}

TEST(ScalingModel, FullModeMidScaleSweetSpotForElastic) {
  // Paper: "full mode shows improved throughput for a number of
  // experiments, but it tends to be less efficient at scale".
  const ScalingModel m(archer2_node(), elastic_spec(), Target::Cpu);
  EXPECT_GT(m.strong(8, 8, ir::MpiMode::Full).gpts,
            m.strong(8, 8, ir::MpiMode::Basic).gpts);
  EXPECT_LT(m.strong(128, 8, ir::MpiMode::Full).gpts,
            m.strong(128, 8, ir::MpiMode::Basic).gpts);
}

TEST(ScalingModel, CustomTopologyHelpsFullModeAtModerateScale) {
  // Paper Section IV-F: restricting the decomposition to x and y avoids
  // strided remainders over z and boosts full mode — but "continuous
  // decomposition across x and y may lead to early shrinking", so the
  // benefit holds at moderate scale and inverts at large rank counts.
  ScalingModel def(archer2_node(), elastic_spec(), Target::Cpu);
  ScalingModel xy(archer2_node(), elastic_spec(), Target::Cpu);
  xy.set_topology({0, 0, 1});
  EXPECT_GT(xy.strong(8, 8, ir::MpiMode::Full).gpts,
            def.strong(8, 8, ir::MpiMode::Full).gpts);
  // Early shrinking: at 128 nodes the xy-only split stops paying off.
  EXPECT_LT(xy.strong(128, 16, ir::MpiMode::Full).gpts,
            def.strong(128, 16, ir::MpiMode::Full).gpts);
}

TEST(ScalingModel, WeakScalingRuntimeIsNearlyFlat) {
  // Paper Figure 12: runtime nearly constant (slight decrease) as nodes
  // and problem grow together.
  for (const KernelSpec& k : all_kernel_specs()) {
    for (const Target t : {Target::Cpu, Target::Gpu}) {
      const MachineSpec mach = t == Target::Cpu ? archer2_node() : tursa_a100();
      const ScalingModel m(mach, k, t);
      const double r1 = m.weak(1, 8, ir::MpiMode::Basic).runtime_seconds;
      const double r128 = m.weak(128, 8, ir::MpiMode::Basic).runtime_seconds;
      // CPU nodes stay within ~1/3 of the single-node runtime; the GPU
      // bound is looser — each A100's exchange rides a single 200 Gb/s
      // IB port against ~2 TB/s of HBM compute, a known deviation from
      // the paper's flat Figure 12 (recorded in EXPERIMENTS.md).
      EXPECT_LT(r128, (t == Target::Cpu ? 1.35 : 2.0) * r1) << k.name;
      EXPECT_GT(r128, 0.95 * r1) << k.name;
    }
  }
}

TEST(ScalingModel, WeakScalingGpuRoughlyFourTimesFaster) {
  // Paper Figure 12: "GPU is constantly 4 times faster".
  for (const KernelSpec& k : all_kernel_specs()) {
    const ScalingModel cpu(archer2_node(), k, Target::Cpu);
    const ScalingModel gpu(tursa_a100(), k, Target::Gpu);
    const double tc = cpu.weak(64, 8, ir::MpiMode::Basic).runtime_seconds;
    const double tg = gpu.weak(64, 8, ir::MpiMode::Basic).runtime_seconds;
    // The paper reports ~4x; the model yields ~2x because it credits the
    // CPU node with its strong-scaling throughput at equal per-node
    // volume (deviation recorded in EXPERIMENTS.md).
    const double speedup = tc / tg;
    EXPECT_GT(speedup, 1.5) << k.name;
    EXPECT_LT(speedup, 7.0) << k.name;
  }
}

TEST(ScalingModel, GpuLessEfficientThanCpuInStrongScaling) {
  // Paper: GPUs win absolute throughput but lose efficiency as local
  // problems shrink (acoustic: 37% vs 64% at 128 units).
  const ScalingModel cpu(archer2_node(), acoustic_spec(), Target::Cpu);
  const ScalingModel gpu(tursa_a100(), acoustic_spec(), Target::Gpu);
  EXPECT_GT(gpu.strong(128, 8, ir::MpiMode::Basic).gpts,
            cpu.strong(128, 8, ir::MpiMode::Basic).gpts);
  EXPECT_LT(gpu.strong(128, 8, ir::MpiMode::Basic).efficiency,
            cpu.strong(128, 8, ir::MpiMode::Basic).efficiency);
}

TEST(Roofline, TtiHasHighestOperationalIntensity) {
  // Paper Figures 6-7.
  const MachineSpec mach = archer2_node();
  const auto oi = [&](const KernelSpec& k) {
    return roofline_point(mach, k, Target::Cpu, 8).oi;
  };
  const double ac = oi(acoustic_spec());
  const double tti = oi(tti_spec());
  const double el = oi(elastic_spec());
  const double ve = oi(viscoelastic_spec());
  EXPECT_GT(tti, ac);
  EXPECT_GT(tti, el);
  EXPECT_GT(tti, ve);
  // All kernels sit below the DRAM roof (memory-bound region claims).
  for (const KernelSpec& k : all_kernel_specs()) {
    const auto rp = roofline_point(mach, k, Target::Cpu, 8);
    EXPECT_LE(rp.gflops, mach.mem_bw_gbs * rp.oi * 1.0001) << k.name;
  }
}

// Golden scaling tables: every field of every series the table
// regenerators print, recomputed from ScalingModel and compared with the
// committed values at 6 significant digits. A series or field present on
// one side only fails too, so the golden files cover the model exactly.
using Series = std::map<std::string, std::map<std::string, double>>;

const char* target_label(Target t) { return t == Target::Cpu ? "cpu" : "gpu"; }

ScalingModel model_for(const KernelSpec& spec, Target target) {
  return ScalingModel(target == Target::Cpu ? archer2_node() : tursa_a100(),
                      spec, target);
}

// bench_strong_scaling --kernel=acoustic --so=8: the paper's Fig. 8 and
// Table IV (the GPU runs support only the basic pattern).
Series strong_series() {
  Series out;
  for (const Target target : {Target::Cpu, Target::Gpu}) {
    const ScalingModel model = model_for(acoustic_spec(), target);
    for (const ir::MpiMode mode :
         {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
      if (target == Target::Gpu && mode != ir::MpiMode::Basic) {
        continue;
      }
      auto& s = out[std::string("acoustic/") + target_label(target) +
                    "/so8/" + ir::to_string(mode)];
      for (const int u : kUnitColumns) {
        s["gpts_u" + std::to_string(u)] = model.strong(u, 8, mode).gpts;
      }
      const ScalingPoint last = model.strong(kUnitColumns.back(), 8, mode);
      s["eff128_pct"] = 100.0 * last.efficiency;
      s["step_s_u128"] = last.step_seconds;
    }
  }
  return out;
}

// bench_weak_scaling: Figures 12 and 21-24, every kernel and order.
Series weak_series() {
  Series out;
  for (const KernelSpec& spec : all_kernel_specs()) {
    for (const int so : {4, 8, 12, 16}) {
      for (const auto& [target, mode] :
           {std::pair{Target::Cpu, ir::MpiMode::Basic},
            std::pair{Target::Gpu, ir::MpiMode::Basic},
            std::pair{Target::Cpu, ir::MpiMode::Diagonal},
            std::pair{Target::Cpu, ir::MpiMode::Full}}) {
        const ScalingModel model = model_for(spec, target);
        auto& s = out[spec.name + "/so" + std::to_string(so) + "/" +
                      target_label(target) + "/" + ir::to_string(mode)];
        for (const int u : kUnitColumns) {
          s["runtime_u" + std::to_string(u)] =
              model.weak(u, so, mode).runtime_seconds;
        }
        s["growth_ratio"] = s["runtime_u128"] / s["runtime_u1"];
      }
    }
  }
  return out;
}

// bench_fig07_roofline: the paper's Fig. 7, every kernel on both targets.
Series roofline_series() {
  Series out;
  for (const Target target : {Target::Cpu, Target::Gpu}) {
    const MachineSpec mach =
        target == Target::Cpu ? archer2_node() : tursa_a100();
    for (const KernelSpec& spec : all_kernel_specs()) {
      const RooflinePoint rp = roofline_point(mach, spec, target, 8);
      out[std::string(target_label(target)) + "/" + spec.name] = {
          {"oi", rp.oi}, {"gflops", rp.gflops}, {"gpts", rp.gpts}};
    }
  }
  return out;
}

Series load_golden(const std::string& file) {
  std::ifstream in(std::string(JITFD_GOLDEN_DIR) + "/" + file);
  std::stringstream text;
  text << in.rdbuf();
  jitfd::obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(jitfd::obs::json_parse(text.str(), doc, &err)) << file << err;
  Series out;
  const jitfd::obs::JsonValue* series = doc.find("series");
  if (series == nullptr) {
    ADD_FAILURE() << file << ": no \"series\" array";
    return out;
  }
  for (const jitfd::obs::JsonValue& entry : series->arr) {
    const jitfd::obs::JsonValue* name = entry.find("name");
    if (name == nullptr) {
      ADD_FAILURE() << file << ": a series without a name";
      continue;
    }
    auto& fields = out[name->str];
    for (const auto& [key, value] : entry.obj) {
      if (key != "name") {
        EXPECT_EQ(value.type, jitfd::obs::JsonValue::Type::Num) << key;
        fields[key] = value.num;
      }
    }
  }
  return out;
}

std::string sig6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void expect_golden(const Series& golden, const Series& fresh,
                   std::size_t series_count, std::size_t fields_each) {
  EXPECT_EQ(golden.size(), series_count);
  for (const auto& [name, fields] : fresh) {
    EXPECT_EQ(golden.count(name), 1U) << "not in the golden file: " << name;
  }
  for (const auto& [name, want] : golden) {
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      ADD_FAILURE() << "golden series not recomputed: " << name;
      continue;
    }
    EXPECT_EQ(want.size(), fields_each) << name;
    EXPECT_EQ(it->second.size(), want.size()) << name;
    for (const auto& [key, value] : want) {
      const auto got = it->second.find(key);
      if (got == it->second.end()) {
        ADD_FAILURE() << name << ": field not recomputed: " << key;
        continue;
      }
      EXPECT_EQ(sig6(got->second), sig6(value)) << name << " " << key;
    }
  }
}

TEST(ScalingModelGolden, StrongScalingSeries) {
  // 4 series x (8 unit columns + efficiency + step time).
  expect_golden(load_golden("strong_scaling.json"), strong_series(), 4, 10);
}

TEST(ScalingModelGolden, WeakScalingSeries) {
  // 4 kernels x 4 orders x 4 target/pattern rows x (8 columns + growth).
  expect_golden(load_golden("weak_scaling.json"), weak_series(), 64, 9);
}

TEST(ScalingModelGolden, RooflinePoints) {
  // 2 targets x 4 kernels x (intensity, GFLOP/s, GPts/s).
  expect_golden(load_golden("roofline.json"), roofline_series(), 8, 3);
}

}  // namespace
