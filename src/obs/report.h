// Exports of the tracing subsystem (obs/trace.h):
//
//  1. summary_table()      — aggregated per-rank/per-phase text table,
//                            the DEVITO_PROFILING summary analogue.
//  2. write_chrome_trace() — Chrome trace-event JSON ("traceEvents"
//                            complete/instant events, one track per
//                            rank), loadable in chrome://tracing or
//                            https://ui.perfetto.dev.
//  3. profile_from()       — machine-readable RunProfile (per-rank
//                            compute/pack/send/wait/unpack seconds,
//                            message counts and bytes) consumed by
//                            src/perfmodel's measured-vs-predicted
//                            comparison (perfmodel/compare.h).
//
// TraceHandle is the user-facing capability returned in a RunSummary:
// a lazy view that snapshots the global buffers at call time, so it is
// complete once every rank has finished (smpi::launch joined, or a
// barrier passed).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace jitfd::obs {

struct AnalysisReport;  // obs/analysis.h

/// Per-rank phase accounting distilled from a TraceData snapshot. Halo
/// phases come from the leaf spans (halo.pack/send/wait/unpack);
/// compute comes from the interpreter's compute spans, or, for JIT
/// runs (whose generated loops cannot carry spans), from the jit.run
/// umbrella minus the halo umbrellas recorded by the callbacks.
struct RankProfile {
  int rank = 0;
  double wall_s = 0.0;  ///< Last event end - first event start.
  double compute_s = 0.0;
  double pack_s = 0.0;
  double send_s = 0.0;
  double wait_s = 0.0;
  double unpack_s = 0.0;
  double sync_s = 0.0;    ///< Barriers/collectives.
  double sparse_s = 0.0;
  double compile_s = 0.0;  ///< Compiler pipeline (construction).
  double jit_build_s = 0.0;
  std::uint64_t messages = 0;    ///< halo.send spans.
  std::uint64_t bytes_sent = 0;  ///< Sum of their payloads.
  std::uint64_t steps = 0;       ///< Per-timestep "step" spans.

  double comm_s() const { return pack_s + send_s + wait_s + unpack_s; }
};

struct RunProfile {
  std::vector<RankProfile> ranks;
  std::uint64_t dropped = 0;

  /// Max over ranks (the slowest rank gates a synchronous step).
  double wall_s() const;
  std::uint64_t steps() const;  ///< Max over ranks.
  /// Totals across ranks.
  std::uint64_t messages() const;
  std::uint64_t bytes_sent() const;
  /// Mean over ranks of comm_s / (comm_s + compute_s); 0 when idle.
  double comm_fraction() const;
};

RunProfile profile_from(const TraceData& data);

/// Aggregated per-rank/per-phase table: count, total ms, and share of
/// the rank's wall time, one block per rank.
std::string summary_table(const TraceData& data);

/// Chrome trace-event JSON. pid 0; tid = rank (one named track per
/// rank); span args carry a0/a1.
void write_chrome_trace(std::ostream& os, const TraceData& data);
/// Returns false (and writes nothing) when the file cannot be opened.
bool write_chrome_trace_file(const std::string& path, const TraceData& data);

/// Capability returned by Operator::apply({.trace = true}): snapshots
/// the global buffers at call time.
class TraceHandle {
 public:
  TraceHandle() = default;
  explicit TraceHandle(bool active) : active_(active) {}

  /// Whether the run that produced this handle recorded events.
  bool active() const { return active_; }

  TraceData data() const { return active_ ? collect() : TraceData{}; }
  RunProfile profile() const { return profile_from(data()); }
  std::string summary() const { return summary_table(data()); }
  /// Cross-rank analysis (wait-state attribution, overlap efficiency,
  /// imbalance); callers include obs/analysis.h.
  AnalysisReport analysis() const;
  bool write_chrome(const std::string& path) const {
    return active_ && write_chrome_trace_file(path, data());
  }

 private:
  bool active_ = false;
};

}  // namespace jitfd::obs
