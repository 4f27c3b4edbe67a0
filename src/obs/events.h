// Bounded, lock-free structured event log: the narrative complement to
// trace.h's timing spans. Sites record *what happened* (a health check
// fired, a halo exchange ran, a NaN was detected, an inversion residual
// moved) as (name, category, step, key/value payload) records; the
// flight recorder's post-mortem bundle and the obs exports read them
// back at quiescent moments.
//
// Cost model — identical to trace.h:
//  - compiled out      — with -DJITFD_OBS=OFF, enabled() is a constexpr
//    false and emit() folds to nothing.
//  - disabled at runtime (default) — one relaxed atomic load and a
//    predicted branch per site.
//  - enabled           — one 0-allocation store into the calling
//    thread's single-writer ring (keys are string literals, stored by
//    pointer; values are doubles).
//
// One ring per thread; SMPI ranks are threads, so smpi::launch tags each
// rank thread via set_thread_rank. collect()/reset() follow the same
// quiescence contract as trace.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace jitfd::obs::events {

/// Event category; the coarse filter of exports and the flight bundle.
enum class EvCat : std::uint8_t {
  Health,  ///< Numerical-health checks and divergence detections.
  Halo,    ///< Halo-exchange lifecycle events.
  Run,     ///< Operator/step-level events.
  Solver,  ///< Application-level events (inversion residuals, ...).
};

/// Number of categories. EvCat::Solver must stay the last enumerator.
inline constexpr int kEvCatCount = static_cast<int>(EvCat::Solver) + 1;

const char* to_string(EvCat cat);

/// Maximum key/value pairs per event; extra pairs are dropped.
inline constexpr int kMaxKv = 4;

/// One key/value payload entry. `key` must be a string literal (stored
/// by pointer, like trace event names).
struct KV {
  const char* key;
  double value;
};

namespace detail {

extern std::atomic<std::uint32_t> g_enabled;

void record(const char* name, EvCat cat, std::int64_t step,
            const KV* kvs, int nkv);

}  // namespace detail

#ifndef JITFD_OBS_DISABLED
/// Whether emit() records (JITFD_EVENTS=1 sets it before main).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed) != 0;
}
#else
constexpr bool enabled() { return false; }
#endif

/// Global on/off switch, composing with EnableScope like trace.h.
void set_enabled(bool on);

/// Ref-counted runtime enabler (concurrent SPMD ranks must not turn
/// each other's logging off).
class EnableScope {
 public:
  explicit EnableScope(bool on);
  ~EnableScope();
  EnableScope(const EnableScope&) = delete;
  EnableScope& operator=(const EnableScope&) = delete;

 private:
  bool on_ = false;
};

/// Tag the calling thread's ring with an SMPI rank id (smpi::launch calls
/// this on every rank thread; untagged threads record as rank 0).
void set_thread_rank(int rank);

/// Ring capacity (events per thread) for rings created after the call;
/// rounded up to a power of two, minimum 8. Default 4096, overridable
/// via JITFD_EVENTS_RING.
void set_ring_capacity(std::size_t events);

/// Record one structured event. `name` and every key must be string
/// literals; at most kMaxKv pairs are kept.
inline void emit(const char* name, EvCat cat, std::int64_t step,
                 std::initializer_list<KV> kvs = {}) {
  if (enabled()) {
    detail::record(name, cat, step, kvs.begin(),
                   static_cast<int>(kvs.size()));
  }
}

/// A snapshot of every thread's ring, flattened and sorted by
/// (rank, record order). `dropped` counts events lost to wraparound.
struct EventData {
  struct Rec {
    std::string name;
    EvCat cat = EvCat::Run;
    int rank = 0;
    std::int64_t step = 0;
    std::uint64_t t_ns = 0;  ///< Trace-epoch timestamp (obs::now_ns).
    std::vector<std::pair<std::string, double>> kv;
  };
  std::vector<Rec> events;
  std::uint64_t dropped = 0;

  bool empty() const { return events.empty(); }
};

/// Snapshot all rings. Same quiescence contract as trace collect().
EventData collect();

/// Discard recorded events (rings are kept).
void reset();

/// Stable machine-readable export:
///   {"events": [{"name": ..., "cat": ..., "rank": N, "step": N,
///                "t_ns": N, "kv": {"key": value, ...}}, ...]}
std::string to_json(const EventData& data);

}  // namespace jitfd::obs::events
