// Analytical strong/weak scaling model (paper Section IV-D/E).
//
// Step time of one kernel on U units (CPU nodes or GPU devices):
//
//   T_comp = local_points * max(bytes_pt / BW_eff, flops_pt / F_eff)
//   V      = halo volume leaving one unit (unit-level decomposition)
//   T_net  = latency + per-message overhead + V / B_net   (per pattern)
//   T_pack = 2 * rank-level halo volume / BW_mem          (pack + unpack)
//   T_sync = sync_cost * spots * log2(ranks)              (jitter/imbalance)
//
//   basic    : T_comp + T_net(6 msgs, multi-step, +alloc copy) + T_pack + T_sync
//   diagonal : T_comp + T_net(26 msgs, single-step)            + T_pack + T_sync
//   full     : max(T_core, T_net) + T_remainder + T_pack + T_sync
//              with T_core/T_remainder from the rank-level CORE fraction
//              and a strided-access penalty on the remainder
//              (paper Section IV-F), plus one sacrificed progress thread.
//
// Machine constants are public hardware specs; the only fitted values are
// the per-kernel single-node efficiency pair (kernel_spec.cpp) and the
// global sync-cost constant. Everything else — crossovers, mode
// orderings, efficiency-vs-SDO trends — is predicted.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/lower.h"
#include "perfmodel/kernel_spec.h"
#include "perfmodel/machine.h"

namespace jitfd::perf {

struct ScalingPoint {
  int units = 1;
  double gpts = 0.0;        ///< Global grid points updated per second / 1e9.
  double step_seconds = 0.0;
  double runtime_seconds = 0.0;  ///< step_seconds * spec.timesteps.
  double efficiency = 0.0;  ///< vs. linear scaling from 1 unit.
  // Breakdown (seconds per step).
  double t_comp = 0.0;
  double t_net = 0.0;
  double t_pack = 0.0;
  double t_sync = 0.0;
  double t_remainder = 0.0;
};

class ScalingModel {
 public:
  ScalingModel(MachineSpec machine, KernelSpec kernel, Target target)
      : machine_(std::move(machine)),
        kernel_(std::move(kernel)),
        target_(target) {}

  /// Strong scaling: the paper's fixed global cube (or a custom edge via
  /// `domain_edge` > 0) on `units` nodes/devices.
  ScalingPoint strong(int units, int so, ir::MpiMode mode,
                      std::int64_t domain_edge = 0) const;

  /// Weak scaling: 256^3 points per unit (paper Section IV-E).
  ScalingPoint weak(int units, int so, ir::MpiMode mode,
                    std::int64_t per_unit_edge = 256) const;

  /// Custom unit-level topology for the full-mode tuning experiment of
  /// Section IV-F (empty = dims_create default).
  void set_topology(std::vector<int> topology) {
    topology_ = std::move(topology);
  }

  const KernelSpec& kernel() const { return kernel_; }
  const MachineSpec& machine() const { return machine_; }

 private:
  ScalingPoint evaluate(const std::vector<std::int64_t>& domain, int units,
                        int so, ir::MpiMode mode,
                        bool weak_regime = false) const;

  MachineSpec machine_;
  KernelSpec kernel_;
  Target target_;
  std::vector<int> topology_;
};

/// Roofline characterization for Figure 7: OI (flops/byte) and attained
/// GFLOP/s of a kernel on one unit.
struct RooflinePoint {
  std::string kernel;
  double oi = 0.0;
  double gflops = 0.0;
  double gpts = 0.0;
};
RooflinePoint roofline_point(const MachineSpec& machine,
                             const KernelSpec& kernel, Target target, int so);

}  // namespace jitfd::perf
