// Cross-rank trace analysis: merges the per-rank TraceData snapshot
// into a global timeline (all ranks share one steady_clock epoch, so
// timestamps are directly comparable) and answers the distributed
// questions the per-rank RunProfile cannot:
//
//  * wait-state attribution — every blocking halo.wait on rank R for
//    peer S is matched against the corresponding halo.send on S
//    (Scalasca-style late-sender/late-receiver split). Matching keys on
//    the deterministic program order both sides share: the k-th
//    chronological send S->R pairs with the k-th chronological wait on
//    R for S, which is sound because sender and receiver enumerate
//    spots/fields/directions identically and SMPI delivery is
//    non-overtaking per (source, tag).
//  * overlap efficiency (full pattern) — fraction of each async
//    exchange's wall time (halo.start open .. halo.finish close) hidden
//    under compute (the gap between start closing and finish opening).
//  * load imbalance — max/mean compute seconds across ranks, the
//    critical-path rank, and (interpreter runs, whose compute spans
//    carry the timestep in a0) a per-step breakdown.
//
// Analysis is strictly offline: it runs over a collected snapshot after
// the ranks have joined and touches no tracing hot path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace jitfd::obs {

/// Per-rank wait-state accounting.
struct RankWaitStats {
  int rank = 0;
  double wait_s = 0.0;          ///< Total halo.wait time on this rank.
  double late_sender_s = 0.0;   ///< Wait time spent before the peer sent.
  double late_receiver_s = 0.0; ///< Wait time on messages already delivered.
  double blamed_s = 0.0;  ///< Late-sender wait *other* ranks spent on us.
};

/// Per-rank compute load, exported as the analysis report's
/// imbalance.ranks member.
struct RankLoad {
  int rank = 0;
  double compute_s = 0.0;  ///< Total compute seconds on this rank.
};

/// Per-timestep compute load across ranks (interpreter runs only; JIT
/// loops carry no per-step compute spans).
struct StepLoad {
  std::int64_t step = 0;
  double max_compute_s = 0.0;
  double mean_compute_s = 0.0;
  int critical_rank = -1;
};

struct AnalysisReport {
  int nranks = 0;
  std::uint64_t steps = 0;   ///< Max "step" spans over ranks.
  std::uint64_t exchanges = 0;  ///< halo.update + halo.start (max over ranks).
  double wall_s = 0.0;       ///< Global extent (max end - min start).

  // -- Wait-state attribution ------------------------------------------
  double late_sender_s = 0.0;    ///< Sum over matched waits.
  double late_receiver_s = 0.0;
  double transfer_s = 0.0;       ///< Matched wait time that is neither.
  std::uint64_t matched_waits = 0;
  std::uint64_t unmatched_waits = 0;  ///< Waits with no pairable send.
  int late_sender_culprit = -1;  ///< argmax blamed_s; -1 when no waits.
  std::uint64_t rendezvous_msgs = 0;  ///< Receiver was already waiting.
  std::uint64_t queued_msgs = 0;      ///< Receiver had not posted yet.
  std::vector<RankWaitStats> rank_waits;

  // -- Overlap (full pattern) ------------------------------------------
  std::uint64_t async_exchanges = 0;  ///< Paired halo.start/halo.finish.
  double overlap_window_s = 0.0;  ///< Sum of exchange wall times.
  double overlap_hidden_s = 0.0;  ///< Portion overlapped with compute.
  double overlap_efficiency = 0.0;  ///< hidden / window (0 when no async).

  // -- Load imbalance --------------------------------------------------
  double max_compute_s = 0.0;
  double mean_compute_s = 0.0;
  double imbalance_ratio = 0.0;  ///< max / mean; 1.0 is perfectly balanced.
  int critical_path_rank = -1;
  std::vector<RankLoad> rank_loads;  ///< Per-rank compute totals, by rank.
  std::vector<StepLoad> step_loads;
};

/// Run the cross-rank analysis over a collected snapshot. Cheap on an
/// empty snapshot (returns a zero report).
AnalysisReport analyze(const TraceData& data);

/// Stable machine-readable export: one top-level "analysis" object with
/// "wait" / "overlap" / "imbalance" sections (validated against
/// obs::analysis_schema() by tools/trace_check).
std::string analysis_json(const AnalysisReport& report);

}  // namespace jitfd::obs
