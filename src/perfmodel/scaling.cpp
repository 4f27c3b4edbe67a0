#include "perfmodel/scaling.h"

#include <algorithm>
#include <cmath>

#include "smpi/cart.h"

namespace jitfd::perf {

namespace {

constexpr double kGiga = 1e9;
constexpr double kMega = 1e6;

/// Load-imbalance/jitter: a small fraction of compute time per halo spot
/// per log2(ranks) (synchronous exchanges expose straggler noise).
constexpr double kSyncFraction = 0.004;

/// Strided-access penalties of full-mode remainder slabs (paper IV-F).
/// Slabs thin along the innermost (contiguous) dimension truncate the
/// vectorized loops to the halo width and are by far the least efficient;
/// slabs thin along outer dimensions keep long inner loops.
constexpr double kRemainderPenaltyInner = 6.0;
constexpr double kRemainderPenaltyOuter = 1.7;

/// Basic mode's per-dimension rounds cannot overlap with each other.
constexpr double kMultiStepSerialization = 1.15;

/// Fraction of blocking-exchange bandwidth the asynchronous (full-mode)
/// exchange attains with MPI_Test-driven progression.
constexpr double kAsyncProgressQuality = 0.5;

struct Local {
  std::vector<std::int64_t> n;  ///< Block sizes.
  std::vector<int> dims;        ///< Topology.
  double points = 0.0;
  double surface_volume(int width, int comm_fields, double factor) const {
    double v = 0.0;
    for (std::size_t d = 0; d < n.size(); ++d) {
      if (dims[d] <= 1) {
        continue;
      }
      double s = 1.0;
      for (std::size_t q = 0; q < n.size(); ++q) {
        if (q != d) {
          s *= static_cast<double>(n[q]);
        }
      }
      v += 2.0 * width * s;
    }
    return v * 4.0 * comm_fields * factor;  // bytes
  }
  int split_dims() const {
    int k = 0;
    for (const int d : dims) {
      k += d > 1 ? 1 : 0;
    }
    return k;
  }
};

Local decompose(const std::vector<std::int64_t>& domain, int parts,
                const std::vector<int>& topology) {
  Local local;
  local.dims = smpi::dims_create(parts, static_cast<int>(domain.size()),
                                 topology);
  local.points = 1.0;
  for (std::size_t d = 0; d < domain.size(); ++d) {
    local.n.push_back(std::max<std::int64_t>(
        1, domain[d] / local.dims[d]));
    local.points *= static_cast<double>(local.n.back());
  }
  return local;
}

}  // namespace

ScalingPoint ScalingModel::evaluate(const std::vector<std::int64_t>& domain,
                                    int units, int so, ir::MpiMode mode,
                                    const std::vector<int>& topology,
                                    bool weak_regime) const {
  ScalingPoint pt;
  pt.units = units;

  const int ranks = units * machine_.ranks_per_unit;
  const Local unit = decompose(domain, units, topology);
  // Rank-level decomposition: free except where the custom topology pins
  // a dimension to stay undecomposed (the Section IV-F tuning case).
  std::vector<int> rank_topo;
  if (!topology.empty()) {
    for (const int d : topology) {
      rank_topo.push_back(d == 1 ? 1 : 0);
    }
  }
  const Local rank = decompose(domain, ranks, rank_topo);

  // --- Computation ---------------------------------------------------------
  const double bytes_pt = kernel_.bytes_per_point(so);
  const double flops_pt = kernel_.flops_per_point(so);
  const double bw = machine_.mem_bw_gbs * kGiga * kernel_.eff_bw.at(target_);
  const double fl =
      machine_.peak_gflops * kGiga * kernel_.eff_flop.at(target_);
  const double t_point = std::max(bytes_pt / bw, flops_pt / fl);
  pt.t_comp = unit.points * t_point;

  // --- Communication -----------------------------------------------------
  // Intra-unit exchanges (shared memory / NVLink within a node) are
  // absorbed into the pack term; the network terms apply only when the
  // unit-level decomposition actually splits a dimension.
  const bool exchanging = ranks > 1 && mode != ir::MpiMode::None;
  const bool networked = exchanging && unit.split_dims() > 0;
  if (exchanging) {
    const int width = so / 2;  // Read footprint of the stencils.
    const double v_unit =
        unit.surface_volume(width, kernel_.comm_fields, kernel_.comm_factor);
    const double v_rank_total =
        rank.surface_volume(width, kernel_.comm_fields, kernel_.comm_factor) *
        machine_.ranks_per_unit;

    // Network fabric: GPUs within one node ride NVLink. The calibrated
    // per-kernel network efficiency captures strong-scaling small-block
    // contention; in the weak regime (large, steady per-unit halos) the
    // exchange pipelines at wire speed (the paper's near-flat Figure 12).
    const double net_eff =
        weak_regime ? 1.0
                    : (kernel_.net_eff.count(target_) > 0
                           ? kernel_.net_eff.at(target_)
                           : 1.0);
    double net_bw = machine_.net_bw_gbs * kGiga * net_eff;
    double latency = machine_.net_latency_us / kMega;
    if (units <= machine_.units_per_node && machine_.units_per_node > 1) {
      net_bw = machine_.intranode_bw_gbs * kGiga * net_eff;
      latency *= 0.25;
    }
    const double overhead = machine_.msg_overhead_us / kMega;
    const double mem_bw = machine_.mem_bw_gbs * kGiga;

    // Pack/unpack cost at rank granularity (OpenMP-threaded in the
    // generated code, so it streams at memory bandwidth).
    pt.t_pack = 2.0 * v_rank_total / mem_bw;
    pt.t_sync = kSyncFraction * pt.t_comp * kernel_.nspots *
                std::log2(static_cast<double>(ranks));

    // Wire messages per unit per step: every rank of the unit issues its
    // own exchanges, serialized at the unit's NIC(s). The message-rate
    // term overlaps with the volume term (whichever binds).
    const int face_msgs = 2 * rank.split_dims() * kernel_.comm_fields *
                          machine_.ranks_per_unit;
    const int star_msgs = face_msgs * 4;  // ~26/6 message blow-up in 3D.
    const double t_face_msgs = networked ? face_msgs * overhead : 0.0;
    const double t_star_msgs = networked ? star_msgs * overhead : 0.0;
    const double t_volume = networked ? v_unit / net_bw : 0.0;
    if (!networked) {
      latency = 0.0;
    }

    switch (mode) {
      case ir::MpiMode::Basic: {
        // Multi-step: the per-dimension rounds serialize (no cross-round
        // overlap), and buffers are allocated and staged in C-land per
        // exchange (Table I, "runtime" allocation).
        const double t_alloc = v_unit / mem_bw;
        pt.t_net = unit.split_dims() * 2.0 * latency +
                   std::max(t_face_msgs, kMultiStepSerialization * t_volume) +
                   t_alloc;
        pt.step_seconds =
            pt.t_comp + pt.t_net + pt.t_pack + pt.t_sync;
        break;
      }
      case ir::MpiMode::Diagonal: {
        // Single-step: one latency, all messages posted together; more,
        // smaller messages (the NIC's message rate can bind instead of
        // bandwidth — the acoustic low-order regime).
        pt.t_net = 2.0 * latency + std::max(t_star_msgs, t_volume);
        pt.step_seconds =
            pt.t_comp + pt.t_net + pt.t_pack + pt.t_sync;
        break;
      }
      case ir::MpiMode::Full: {
        // CORE fraction at rank granularity: remainders are per rank.
        double core_frac = 1.0;
        double slab_weight = 0.0;  ///< Penalty-weighted slab fractions.
        double slab_total = 0.0;
        for (std::size_t d = 0; d < rank.n.size(); ++d) {
          if (rank.dims[d] > 1) {
            const double frac = std::min(
                1.0, 2.0 * width / static_cast<double>(rank.n[d]));
            core_frac *= std::max(0.0, 1.0 - frac);
            const double penalty = (d == rank.n.size() - 1)
                                       ? kRemainderPenaltyInner
                                       : kRemainderPenaltyOuter;
            slab_weight += frac * penalty;
            slab_total += frac;
          }
        }
        const double avg_penalty =
            slab_total > 0.0 ? slab_weight / slab_total
                             : kRemainderPenaltyOuter;
        // One OpenMP thread is sacrificed to the progress engine.
        const double thread_tax =
            machine_.omp_threads_per_rank > 1
                ? static_cast<double>(machine_.omp_threads_per_rank) /
                      (machine_.omp_threads_per_rank - 1)
                : 1.0;
        const double t_core = pt.t_comp * core_frac * thread_tax;
        pt.t_remainder =
            pt.t_comp * (1.0 - core_frac) * avg_penalty * thread_tax;
        // Asynchronous progression (MPI_Test prodding) attains only a
        // fraction of the blocking exchange's effective bandwidth.
        pt.t_net = 2.0 * latency +
                   std::max(t_star_msgs, t_volume) / kAsyncProgressQuality;
        pt.step_seconds = std::max(t_core, pt.t_net) + pt.t_remainder +
                          pt.t_pack + pt.t_sync;
        pt.t_comp = t_core;  // Report the overlapped-core time.
        break;
      }
      case ir::MpiMode::None:
        break;
    }
  } else {
    pt.step_seconds = pt.t_comp;
  }

  double global_points = 1.0;
  for (const std::int64_t d : domain) {
    global_points *= static_cast<double>(d);
  }
  pt.gpts = global_points / pt.step_seconds / kGiga;
  pt.runtime_seconds = pt.step_seconds * kernel_.timesteps;
  return pt;
}

ScalingPoint ScalingModel::strong(int units, int so, ir::MpiMode mode,
                                  std::int64_t domain_edge) const {
  const std::int64_t edge =
      domain_edge > 0 ? domain_edge : kernel_.strong_domain.at(target_);
  const std::vector<std::int64_t> domain{edge, edge, edge};
  ScalingPoint pt = evaluate(domain, units, so, mode, topology_);
  // One unit is never split: pins that do not divide 1 still give a base.
  const ScalingPoint base = evaluate(domain, 1, so, ir::MpiMode::None, {});
  pt.efficiency = pt.gpts / (base.gpts * units);
  return pt;
}

ScalingPoint ScalingModel::weak(int units, int so, ir::MpiMode mode,
                                std::int64_t per_unit_edge) const {
  const std::vector<int> udims = smpi::dims_create(units, 3, topology_);
  std::vector<std::int64_t> domain;
  for (const int d : udims) {
    domain.push_back(per_unit_edge * d);
  }
  ScalingPoint pt =
      evaluate(domain, units, so, mode, topology_, /*weak_regime=*/true);
  const std::vector<std::int64_t> one{per_unit_edge, per_unit_edge,
                                      per_unit_edge};
  const ScalingPoint base =
      evaluate(one, 1, so, ir::MpiMode::None, {}, /*weak_regime=*/true);
  pt.efficiency = pt.gpts / (base.gpts * units);
  return pt;
}

RooflinePoint roofline_point(const MachineSpec& machine,
                             const KernelSpec& kernel, Target target, int so) {
  RooflinePoint rp;
  rp.kernel = kernel.name;
  const double bytes_pt = kernel.bytes_per_point(so);
  const double flops_pt = kernel.flops_per_point(so);
  rp.oi = flops_pt / bytes_pt;
  const double bw = machine.mem_bw_gbs * kGiga * kernel.eff_bw.at(target);
  const double fl = machine.peak_gflops * kGiga * kernel.eff_flop.at(target);
  const double t_point = std::max(bytes_pt / bw, flops_pt / fl);
  rp.gpts = 1.0 / t_point / kGiga;
  rp.gflops = rp.gpts * flops_pt;
  return rp;
}

}  // namespace jitfd::perf
