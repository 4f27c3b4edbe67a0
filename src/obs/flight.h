// Flight recorder: a post-mortem story for crashed or diverged runs.
//
// Long-lived solver processes need more than a stack trace when things
// go wrong: which step each rank was on, what the health time-series
// looked like leading up to the NaN, what the run was configured as,
// and what the last traced spans were. This module accumulates that
// state cheaply during a run (a relaxed per-step store, bounded health
// ring, config map written once per apply) and, on demand — NaN/Inf
// detection under on_nan=abort_dump, an uncaught exception, or a fatal
// signal — dumps one schema-validated JSON bundle:
//
//   {"flight": {"schema_version": 3, "reason": ..., "rank": N,
//               "step": N, "detail": ..., "config": {...},
//               "health": [...], "steps": [{"rank": N, "step": N}, ...],
//               "trace": [...]}}
//
// The dump is once-per-process (first reason wins; later calls return
// the same result) and lands in $JITFD_FLIGHT_DIR (default ".") as
// jitfd_flight.json. tools/trace_check --flight validates the schema.
//
// The signal/terminate handlers are best-effort: JSON serialization is
// not async-signal-safe, but a crashing solver has nothing to lose.
#pragma once

#include <cstdint>
#include <string>

namespace jitfd::obs::flight {

/// Record one run-configuration entry. `json_value` must be a valid
/// JSON value (quoted string, number, object, ...); it is embedded
/// verbatim under "config"."key". Last write per key wins.
void set_config(const std::string& key, const std::string& json_value);

/// One health-ring record. Kept as a compact POD so the per-check cost
/// is a mutex'd struct copy; JSON formatting happens only at dump
/// time (health checks run every few steps, dumps once per process).
struct HealthRec {
  std::int64_t step = 0;
  int field_id = -1;
  char field[24] = {};  ///< Field name (truncated to fit).
  std::int64_t nan_count = 0;
  std::int64_t inf_count = 0;
  double min = 0.0;  ///< Non-finite values export as JSON null.
  double max = 0.0;
  double l2 = 0.0;
  int bad_rank = -1;
};

/// Append one health sample to the bounded ring: the oldest samples
/// are dropped beyond kHealthRing.
void record_health(const HealthRec& rec);
inline constexpr std::size_t kHealthRing = 512;

/// Note the step `rank` is currently executing (one relaxed store; the
/// generated per-step hook and the interpreter call this every step).
void note_step(int rank, std::int64_t step);

/// Write the post-mortem bundle and return its path once it is written
/// and flushed, or "" (with the reason on stderr) when it could not be.
/// Idempotent: only the first call writes; later calls wait for it and
/// return its result. `rank` and `step` may be -1 when unknown (crash
/// handlers).
std::string dump(const std::string& reason, int rank, std::int64_t step,
                 const std::string& detail);

/// Whether dump() has already run (tests / examples).
bool dumped();

/// Reset the dumped-once latch and accumulated health/step state
/// (config is kept). Meant for tests that exercise multiple dumps in
/// one process.
void reset_for_testing();

/// Install std::set_terminate and fatal-signal (SIGSEGV/SIGABRT/
/// SIGFPE/SIGILL/SIGBUS) handlers that dump before dying. Idempotent.
void install_crash_handlers();

}  // namespace jitfd::obs::flight
