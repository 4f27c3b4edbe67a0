// Regenerates the paper's weak-scaling evaluation: Figure 12 (SDO 8) and
// Figures 21-24 (SDO 4/8/12/16): runtime of the 512 ms simulated window
// with a constant 256^3 points per unit, doubling the domain with the
// unit count. The paper's headline observations are checked in
// tests/test_perfmodel.cpp: near-constant runtime and a GPU advantage at
// every node count.
//
// Usage: bench_weak_scaling [--so=4|8|12|16] [--kernel=...]
//
// A bad kernel or order exits 2 with the usage line. Every table is
// pinned at 6 significant digits by ScalingModelGolden.WeakScalingSeries
// (tests/test_perfmodel.cpp).
#include "bench_util.h"
#include "ir/lower.h"

namespace {

using namespace jitfd::perf;  // NOLINT: benchmark driver.
namespace ir = jitfd::ir;

constexpr const char* kUsage =
    "bench_weak_scaling [--kernel=all|acoustic|elastic|tti|viscoelastic] "
    "[--so=all|4|8|12|16]";

void run_weak(const KernelSpec& spec, int so) {
  std::printf("%s so-%02d weak scaling, 256^3 per unit, %d steps "
              "(runtime, seconds)\n",
              spec.name.c_str(), so, spec.timesteps);
  std::printf("  %-22s", "units:");
  for (const int u : kUnitColumns) {
    std::printf(" %8d", u);
  }
  std::printf("\n");
  for (const Target target : {Target::Cpu, Target::Gpu}) {
    const MachineSpec mach =
        target == Target::Cpu ? archer2_node() : tursa_a100();
    const ScalingModel model(mach, spec, target);
    std::printf("  %-22s", target == Target::Cpu ? "CPU basic" : "GPU basic");
    double first = 0.0;
    double last = 0.0;
    for (const int u : kUnitColumns) {
      const auto pt = model.weak(u, so, ir::MpiMode::Basic);
      if (u == 1) {
        first = pt.runtime_seconds;
      }
      last = pt.runtime_seconds;
      std::printf(" %8.3f", pt.runtime_seconds);
    }
    std::printf("   (x%.2f from 1 to 128 units)\n", last / first);
  }
  // CPU mode comparison at weak scale (full is best when it wins on one
  // node, paper Section IV-E).
  for (const ir::MpiMode mode : {ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    const ScalingModel model(archer2_node(), spec, Target::Cpu);
    std::printf("  %-22s", (std::string("CPU ") + ir::to_string(mode)).c_str());
    for (const int u : kUnitColumns) {
      std::printf(" %8.3f", model.weak(u, so, mode).runtime_seconds);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv, kUsage, {"kernel", "so"});
  const std::string kernel =
      args.get("kernel", "all", benchutil::kernel_choices());
  const std::string so_s = args.get("so", "all", benchutil::kOrderChoices);
  std::printf("=== Weak scaling (paper Section IV-E; Figures 12, 21-24) "
              "===\n\n");
  for (const KernelSpec& spec : all_kernel_specs()) {
    if (kernel != "all" && kernel != spec.name) {
      continue;
    }
    for (const int so : {4, 8, 12, 16}) {
      if (so_s != "all" && so_s != std::to_string(so)) {
        continue;
      }
      run_weak(spec, so);
    }
  }
  return 0;
}
