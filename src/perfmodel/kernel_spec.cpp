#include "perfmodel/kernel_spec.h"

#include <stdexcept>

#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"
#include "smpi/runtime.h"

namespace jitfd::perf {

double KernelSpec::bytes_per_point(int so) const {
  // 4 bytes per field streamed once per step, with a mild cache-pressure
  // growth at wider stencils (more partially-used cache lines).
  return 4.0 * fields * (1.0 + 0.15 * (so - 8) / 8.0);
}

double KernelSpec::flops_per_point(int so) const {
  const auto it = flops_by_so.find(so);
  if (it != flops_by_so.end()) {
    return it->second;
  }
  // Linear interpolation/extrapolation on the tabulated orders.
  const auto lo = flops_by_so.begin();
  const auto hi = std::prev(flops_by_so.end());
  if (so <= lo->first) {
    return lo->second;
  }
  if (so >= hi->first) {
    return hi->second;
  }
  auto upper = flops_by_so.upper_bound(so);
  auto lower = std::prev(upper);
  const double t = static_cast<double>(so - lower->first) /
                   static_cast<double>(upper->first - lower->first);
  return lower->second + t * (upper->second - lower->second);
}

namespace {

template <typename Model>
DerivedFacts derive_for() {
  DerivedFacts facts;
  for (const int so : {4, 8, 12, 16}) {
    grid::Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
    Model model(g, so);
    auto op = model.make_operator({});
    facts.flops_by_so[so] =
        models::analyze(*op, "probe", so, 0).flops_per_point;
  }
  // Communication structure from the halo-detection pass on a distributed
  // instance (8 ranks, 2x2x2). Pinned to the thread transport: derived
  // facts feed the perf model and must not vary with JITFD_TRANSPORT.
  smpi::launch({.nranks = 8, .transport = smpi::TransportKind::Threads},
               [&](smpi::Communicator& comm) {
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    if (comm.rank() != 0) {
      grid::Grid g({8, 8, 8}, {1.0, 1.0, 1.0}, comm);
      Model model(g, 4);
      (void)model.make_operator(opts);
      return;
    }
    grid::Grid g({8, 8, 8}, {1.0, 1.0, 1.0}, comm);
    Model model(g, 4);
    auto op = model.make_operator(opts);
    for (const auto& spot : op->info().spots) {
      if (spot.hoisted) {
        continue;  // One-off parameter exchanges are amortized away.
      }
      ++facts.nspots;
      facts.comm_fields += static_cast<int>(spot.needs.size());
    }
  });
  return facts;
}

}  // namespace

DerivedFacts derive_facts(const std::string& kernel_name) {
  if (kernel_name == "acoustic") {
    return derive_for<models::AcousticModel>();
  }
  if (kernel_name == "tti") {
    return derive_for<models::TtiModel>();
  }
  if (kernel_name == "elastic") {
    return derive_for<models::ElasticModel>();
  }
  if (kernel_name == "viscoelastic") {
    return derive_for<models::ViscoelasticModel>();
  }
  throw std::invalid_argument("derive_facts: unknown kernel " + kernel_name);
}

namespace {

KernelSpec finish(KernelSpec spec, bool derive) {
  if (derive) {
    const DerivedFacts facts = derive_facts(spec.name);
    spec.flops_by_so = facts.flops_by_so;
    spec.comm_fields = facts.comm_fields;
    spec.nspots = facts.nspots;
  }
  return spec;
}

}  // namespace

KernelSpec acoustic_spec(bool derive) {
  KernelSpec s;
  s.name = "acoustic";
  s.fields = 5;
  s.comm_fields = 1;  // u@t.
  s.nspots = 1;
  s.flops_by_so = {{4, 28}, {8, 42}, {12, 56}, {16, 70}};
  s.strong_domain = {{Target::Cpu, 1024}, {Target::Gpu, 1158}};
  s.timesteps = 290;
  s.eff_bw = {{Target::Cpu, 0.726}, {Target::Gpu, 0.306}};
  s.eff_flop = {{Target::Cpu, 0.35}, {Target::Gpu, 0.30}};
  s.net_eff = {{Target::Cpu, 0.353}, {Target::Gpu, 0.390}};
  return finish(std::move(s), derive);
}

KernelSpec tti_spec(bool derive) {
  KernelSpec s;
  s.name = "tti";
  s.fields = 12;
  s.comm_fields = 4;  // p@t, q@t and the CIRE temporaries zdp, zdq.
  s.nspots = 2;
  s.flops_by_so = {{4, 509}, {8, 960}, {12, 1409}, {16, 1859}};
  s.strong_domain = {{Target::Cpu, 1024}, {Target::Gpu, 896}};
  s.timesteps = 290;
  s.eff_bw = {{Target::Cpu, 0.50}, {Target::Gpu, 0.22}};
  // The CPU anchor (SDO 8) is flop-bound: 0.42 was fitted at 1134
  // flops/point, before the +-k taps were paired, equal spacings merged
  // and damp counted as a max of three profiles, and is rescaled to keep
  // the same SDO-8 throughput.
  s.eff_flop = {{Target::Cpu, 0.42 * 960.0 / 1134.0}, {Target::Gpu, 0.65}};
  s.net_eff = {{Target::Cpu, 0.588}, {Target::Gpu, 0.791}};
  return finish(std::move(s), derive);
}

KernelSpec elastic_spec(bool derive) {
  KernelSpec s;
  s.name = "elastic";
  s.fields = 22;
  s.comm_fields = 9;  // tau (6) @t, v (3) @t+1.
  s.nspots = 2;
  s.flops_by_so = {{4, 225}, {8, 369}, {12, 513}, {16, 657}};
  s.strong_domain = {{Target::Cpu, 1024}, {Target::Gpu, 832}};
  s.timesteps = 363;
  s.eff_bw = {{Target::Cpu, 0.43}, {Target::Gpu, 0.23}};
  // The GPU anchor (SDO 8) is flop-bound: 0.092 was fitted at 351
  // flops/point, before damp counted as a max of three profiles in each
  // of the nine updates, and is rescaled to keep the same SDO-8
  // throughput. The CPU anchor is DRAM-bound.
  s.eff_flop = {{Target::Cpu, 0.08}, {Target::Gpu, 0.092 * 369.0 / 351.0}};
  s.net_eff = {{Target::Cpu, 0.180}, {Target::Gpu, 0.442}};
  return finish(std::move(s), derive);
}

KernelSpec viscoelastic_spec(bool derive) {
  KernelSpec s;
  s.name = "viscoelastic";
  s.fields = 36;
  s.comm_fields = 9;   // tau (6) @t, v (3) @t+1 (r is read point-wise).
  s.comm_factor = 1.65;  // Paper: its code also exchanges the memory vars.
  s.nspots = 2;
  s.flops_by_so = {{4, 251}, {8, 395}, {12, 539}, {16, 683}};
  s.strong_domain = {{Target::Cpu, 768}, {Target::Gpu, 704}};
  s.timesteps = 251;
  s.eff_bw = {{Target::Cpu, 0.47}, {Target::Gpu, 0.20}};
  s.eff_flop = {{Target::Cpu, 0.052}, {Target::Gpu, 0.056}};
  s.net_eff = {{Target::Cpu, 0.280}, {Target::Gpu, 0.621}};
  return finish(std::move(s), derive);
}

std::vector<KernelSpec> all_kernel_specs(bool derive) {
  return {acoustic_spec(derive), elastic_spec(derive), tti_spec(derive),
          viscoelastic_spec(derive)};
}

}  // namespace jitfd::perf
