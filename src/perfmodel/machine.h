// Machine models for the paper's two evaluation systems (Section IV-A):
// ARCHER2 CPU nodes (2x AMD EPYC 7742, HPE Slingshot) and Tursa GPU
// nodes (4x NVIDIA A100-80, NVLink + 4x200Gb/s InfiniBand).
//
// The analytical scaling model combines these hardware constants with
// kernel facts extracted from the compiler. Hardware numbers are public
// specifications; effective-efficiency factors live with the kernel
// calibration (see EXPERIMENTS.md, "Calibration protocol"), not here.
#pragma once

#include <string>

namespace jitfd::perf {

/// One scaling "unit": a CPU node or a GPU device (the paper scales CPU
/// plots per node and GPU plots per device).
struct MachineSpec {
  std::string name;

  // Compute.
  double mem_bw_gbs = 0.0;      ///< Streaming memory bandwidth per unit (GB/s).
  double peak_gflops = 0.0;     ///< FP32 peak per unit (GFLOP/s).
  int ranks_per_unit = 1;       ///< MPI ranks per unit (8 on ARCHER2 nodes).
  int omp_threads_per_rank = 1; ///< For the full-mode sacrificed thread.

  // Interconnect (per unit).
  double net_bw_gbs = 0.0;      ///< Injection bandwidth per unit (GB/s).
  double net_latency_us = 0.0;  ///< Per-message one-way latency (us).
  double msg_overhead_us = 0.0; ///< Per-message CPU injection overhead (us).

  // GPU-specific: units per node sharing NVLink; intra-node traffic uses
  // the faster fabric.
  int units_per_node = 1;
  double intranode_bw_gbs = 0.0;
};

/// ARCHER2 compute node: dual EPYC 7742 (128 cores, 8 NUMA domains),
/// ~350 GB/s stream bandwidth, FP32 peak ~9.2 TFLOP/s, Slingshot with two
/// 200 Gb/s NICs per node.
MachineSpec archer2_node();

/// Tursa A100-80 device: 2039 GB/s HBM2e, 19.5 TFLOPS FP32, a dedicated
/// 200 Gb/s IB interface per GPU, NVLink among the 4 GPUs of a node.
MachineSpec tursa_a100();

}  // namespace jitfd::perf
