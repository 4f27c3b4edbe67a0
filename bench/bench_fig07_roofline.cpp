// Regenerates the paper's Figure 7: single-node roofline placement of the
// four flop-optimized kernels on CPU and GPU. Operational intensity is
// computed at compile time from the lowered AST (the paper's own
// methodology, Section IV-C); attained GFLOP/s comes from the calibrated
// node model. Both rooflines (DRAM bandwidth slope, FP32 peak ceiling)
// are printed so the "mainly DRAM BW bound" claim can be checked per
// kernel. ScalingModelGolden.RooflinePoints (tests/test_perfmodel.cpp)
// pins every point at 6 significant digits.
#include "bench_util.h"

namespace {

using namespace jitfd::perf;  // NOLINT: benchmark driver.

void run(Target target) {
  const MachineSpec mach = target == Target::Cpu ? archer2_node()
                                                 : tursa_a100();
  std::printf("%s: DRAM roof %.0f GB/s, FP32 peak %.0f GFLOP/s\n",
              benchutil::target_name(target), mach.mem_bw_gbs,
              mach.peak_gflops);
  std::printf("  %-14s %8s %12s %10s %14s %s\n", "kernel", "OI", "GFLOP/s",
              "GPts/s", "DRAM-roof@OI", "bound");
  for (const KernelSpec& spec : all_kernel_specs()) {
    const RooflinePoint rp = roofline_point(mach, spec, target, 8);
    const double dram_roof = mach.mem_bw_gbs * rp.oi;
    const bool mem_bound = rp.gflops < 0.999 * mach.peak_gflops &&
                           dram_roof < mach.peak_gflops;
    std::printf("  %-14s %8.2f %12.1f %10.2f %14.1f %s\n", spec.name.c_str(),
                rp.oi, rp.gflops, rp.gpts, dram_roof,
                mem_bound ? "DRAM" : "compute");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args no_args(argc, argv, "bench_fig07_roofline", {});
  std::printf("=== Single-node roofline (paper Figure 7, SDO 8) ===\n\n");
  run(Target::Cpu);
  run(Target::Gpu);
  std::printf("Operational intensity is derived from the compiler's lowered\n"
              "AST (flops and field traffic per updated point); see\n"
              "src/models/common.h (analyze) and perfmodel/kernel_spec.h.\n");
  return 0;
}
