// Regenerates the paper's strong-scaling evaluation:
//   Figures 8-11 and Tables IV/VIII/XII/XVI (SDO 8, CPU + GPU),
//   Figures 13-16 and Tables III-XVIII (CPU, SDO 4/8/12/16),
//   Figures 17-20 and Tables XIX-XXXIV (GPU, SDO sweep, basic mode).
//
// Model throughput (GPts/s) is printed next to the paper's published
// values where the table is legible in the source. The paper's GPU runs
// support only the basic pattern (Table I), so GPU rows are basic-only.
//
// Usage:
//   bench_strong_scaling [--kernel=acoustic|elastic|tti|viscoelastic]
//                        [--target=cpu|gpu] [--so=4|8|12|16]
//                        [--topology=x,y,z]
//
// --topology pins the unit grid per dimension (0 = free). A unit
// count the pins cannot hold prints "-" in its column; pins that hold no
// column exit 2, as does a bad kernel, target, order or number. The
// acoustic SDO-8 tables are pinned at 6 significant digits by
// ScalingModelGolden.StrongScalingSeries (tests/test_perfmodel.cpp).
#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench_util.h"
#include "ir/lower.h"

namespace {

using namespace jitfd::perf;  // NOLINT: benchmark driver.
namespace ir = jitfd::ir;

constexpr const char* kUsage =
    "bench_strong_scaling [--kernel=all|acoustic|elastic|tti|viscoelastic] "
    "[--target=all|cpu|gpu] [--so=all|4|8|12|16] [--topology=X,Y,Z]";

void run_table(const KernelSpec& spec, Target target, int so,
               const std::vector<int>& topology) {
  const MachineSpec mach = target == Target::Cpu ? archer2_node()
                                                 : tursa_a100();
  ScalingModel model(mach, spec, target);
  if (!topology.empty()) {
    model.set_topology(topology);
  }
  const std::vector<ir::MpiMode> modes =
      target == Target::Cpu
          ? std::vector<ir::MpiMode>{ir::MpiMode::Basic, ir::MpiMode::Diagonal,
                                     ir::MpiMode::Full}
          : std::vector<ir::MpiMode>{ir::MpiMode::Basic};
  // Every point first: a column the pins cannot hold stays unset and
  // prints "-"; pins that hold no column fail before any output.
  std::vector<std::vector<std::optional<ScalingPoint>>> rows;
  std::string why;
  for (const ir::MpiMode mode : modes) {
    rows.emplace_back();
    for (const int u : kUnitColumns) {
      try {
        rows.back().push_back(model.strong(u, so, mode));
      } catch (const std::invalid_argument& e) {
        rows.back().emplace_back();
        why = e.what();
      }
    }
  }
  if (std::none_of(rows.front().begin(), rows.front().end(),
                   [](const auto& pt) { return pt.has_value(); })) {
    throw std::invalid_argument(why);
  }

  std::printf("%s so-%02d strong scaling, %s, domain %lld^3 (GPts/s)\n",
              spec.name.c_str(), so, benchutil::target_name(target),
              static_cast<long long>(spec.strong_domain.at(target)));
  std::printf("  %-10s       ", "units:");
  for (const int u : kUnitColumns) {
    std::printf(" %8d", u);
  }
  std::printf("\n");
  for (std::size_t m = 0; m < modes.size(); ++m) {
    std::vector<double> row;
    for (const auto& pt : rows[m]) {
      row.push_back(pt ? pt->gpts : std::nan(""));
    }
    benchutil::print_row_pair(ir::to_string(modes[m]), row,
                              paper_strong(spec.name, target, so, modes[m]));
    if (const auto& last = rows[m].back()) {
      std::printf("  %-10s eff@128 = %.0f%%  (comp %.2f ms, net %.2f ms, "
                  "pack %.2f ms/step)\n",
                  "", 100.0 * last->efficiency, last->t_comp * 1e3,
                  last->t_net * 1e3, last->t_pack * 1e3);
    } else {
      std::printf("  %-10s eff@128 = -\n", "");
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv, kUsage,
                             {"kernel", "target", "so", "topology"});
  const std::string kernel =
      args.get("kernel", "all", benchutil::kernel_choices());
  const std::string target_s = args.get("target", "all", {"all", "cpu", "gpu"});
  const std::string so_s = args.get("so", "all", benchutil::kOrderChoices);
  const std::string topo_s = args.get("topology", "");

  std::vector<int> topology;
  for (std::size_t pos = 0; !topo_s.empty();) {
    const std::size_t comma = topo_s.find(',', pos);
    topology.push_back(
        args.number("topology", topo_s.substr(pos, comma - pos)));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  if (topology.size() > 3) {
    args.fail("--topology takes at most 3 dimensions");
  }

  std::printf("=== Strong scaling (paper Section IV-D; Figures 8-11, "
              "13-20; Tables III-XXXIV) ===\n\n");
  for (const KernelSpec& spec : all_kernel_specs()) {
    if (kernel != "all" && kernel != spec.name) {
      continue;
    }
    for (const Target target : {Target::Cpu, Target::Gpu}) {
      if (target_s == "cpu" && target != Target::Cpu) {
        continue;
      }
      if (target_s == "gpu" && target != Target::Gpu) {
        continue;
      }
      for (const int so : {4, 8, 12, 16}) {
        if (so_s != "all" && so_s != std::to_string(so)) {
          continue;
        }
        try {
          run_table(spec, target, so, topology);
        } catch (const std::invalid_argument& e) {
          // No unit column can hold the --topology pins.
          args.fail(std::string("--topology=") + topo_s + ": " + e.what());
        }
      }
    }
  }
  return 0;
}
