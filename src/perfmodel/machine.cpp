#include "perfmodel/machine.h"

namespace jitfd::perf {

MachineSpec archer2_node() {
  MachineSpec m;
  m.name = "ARCHER2 (2x EPYC 7742)";
  m.mem_bw_gbs = 350.0;      // STREAM triad, dual-socket Rome.
  m.peak_gflops = 9216.0;    // 128 cores x 2.25 GHz x 32 SP flops/cycle.
  m.ranks_per_unit = 8;      // One rank per NUMA domain (paper setup).
  m.omp_threads_per_rank = 16;
  m.net_bw_gbs = 50.0;       // 2 NICs x 200 Gb/s.
  m.net_latency_us = 2.0;    // Slingshot P2P.
  m.msg_overhead_us = 2.0;
  m.units_per_node = 1;
  m.intranode_bw_gbs = 350.0;
  return m;
}

MachineSpec tursa_a100() {
  MachineSpec m;
  m.name = "Tursa (A100-80)";
  m.mem_bw_gbs = 2039.0;   // HBM2e.
  m.peak_gflops = 19500.0; // FP32.
  m.ranks_per_unit = 1;
  m.omp_threads_per_rank = 1;
  m.net_bw_gbs = 25.0;  // One 200 Gb/s IB interface per GPU.
  m.net_latency_us = 3.5;
  m.msg_overhead_us = 1.5;  // Host-driven staging (no device buffers yet).
  m.units_per_node = 4;
  m.intranode_bw_gbs = 250.0;  // NVLink pairwise effective.
  return m;
}

}  // namespace jitfd::perf
