// Per-rank structured tracing: the observability substrate of the stack
// (the DEVITO_PROFILING analogue, but event-based).
//
// Every instrumented site records scoped spans (compile-pipeline phases,
// JIT builds, per-timestep compute, pack/send/wait/unpack, transport
// deliveries) into a lock-free single-writer ring buffer owned by the
// recording thread. SMPI ranks are threads, so one buffer per rank falls
// out naturally; smpi::launch tags each rank thread with its rank id.
//
// Cost model:
//  - compiled out      — configure with -DJITFD_OBS=OFF: enabled() is a
//    constexpr false, every Span and instant() folds to nothing.
//  - disabled at runtime (default) — one relaxed atomic load and a
//    predicted branch per site.
//  - enabled           — a steady_clock read at span open, and one
//    40-byte ring-slot store (no locks, no allocation after the buffer
//    exists) at span close.
//
// Collection (collect()/reset()) is meant for quiescent moments — after
// smpi::launch has joined its rank threads, or behind a barrier; readers do
// not synchronize with in-flight writers beyond an acquire on the ring
// head. Exports (Chrome trace JSON, summary table, RunProfile) live in
// obs/report.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace jitfd::obs {

/// Phase category of an event; the aggregation key of the summary table
/// and the `cat` field of the Chrome trace.
enum class Cat : std::uint8_t {
  Compile,  ///< Compiler-pipeline phases (clustering ... pattern lowering).
  Jit,      ///< JIT build / compile-cache activity.
  Compute,  ///< Stencil loop-nest execution.
  Pack,     ///< Halo pack (field -> send buffer).
  Send,     ///< Halo message injection.
  Wait,     ///< Blocked on receive completion.
  Unpack,   ///< Halo unpack (recv buffer -> field).
  Halo,     ///< Whole-exchange umbrella spans (update/start/finish).
  Msg,      ///< Transport-level delivery events (instant).
  Sync,     ///< Barriers and collectives.
  Sparse,   ///< Off-grid source/receiver operations.
  Run,      ///< apply()-level and per-timestep umbrella spans.
};

/// Number of categories. Cat::Run must stay the last enumerator; the
/// exhaustive to_string test iterates [0, kCatCount).
inline constexpr int kCatCount = static_cast<int>(Cat::Run) + 1;

const char* to_string(Cat cat);

/// One recorded event. `name` must be a string literal (stored by
/// pointer); t0 == t1 marks an instant event.
struct Event {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::int64_t a0 = 0;  ///< Site-defined (bytes, time step, ...).
  std::int32_t a1 = 0;  ///< Site-defined (spot id, cache-hit flag, ...).
  Cat cat = Cat::Run;
  std::uint8_t depth = 0;  ///< Span nesting depth at record time (0 = top).
};

namespace detail {

extern std::atomic<std::uint32_t> g_enabled;

std::uint64_t span_begin();
void span_end(const char* name, Cat cat, std::uint64_t t0_ns,
              std::int64_t a0, std::int32_t a1);
void record_instant(const char* name, Cat cat, std::int64_t a0,
                    std::int32_t a1);

}  // namespace detail

/// Nanoseconds since the process-wide trace epoch (first use).
std::uint64_t now_ns();

#ifndef JITFD_OBS_DISABLED
/// Whether any enabler (set_enabled or a live EnableScope) is active.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed) != 0;
}
#else
constexpr bool enabled() { return false; }
#endif

/// Global on/off switch (the JITFD_TRACE=1 environment variable sets it
/// before main). Idempotent; composes with EnableScope.
void set_enabled(bool on);

/// Ref-counted runtime enabler: tracing is on while any scope (on any
/// rank thread) is alive. `ApplyArgs{.trace = true}` uses this so
/// concurrent SPMD ranks do not turn each other's tracing off.
class EnableScope {
 public:
  explicit EnableScope(bool on);
  ~EnableScope();
  EnableScope(const EnableScope&) = delete;
  EnableScope& operator=(const EnableScope&) = delete;

 private:
  bool on_ = false;
};

/// Tag the calling thread's buffer (and future buffers it creates) with
/// an SMPI rank id. smpi::launch calls this on every rank thread; untagged
/// threads record as rank 0.
void set_thread_rank(int rank);

/// Ring capacity (events per thread) for buffers created after the call;
/// rounded up to a power of two, minimum 8. Existing buffers keep their
/// size. Default 1<<16, overridable via JITFD_TRACE_RING.
void set_ring_capacity(std::size_t events);

/// RAII span. Construction snapshots the clock when tracing is enabled;
/// destruction (or close()) records the event. When tracing is disabled
/// at construction the span is inert, whatever happens later.
class Span {
 public:
  explicit Span(const char* name, Cat cat, std::int64_t a0 = 0,
                std::int32_t a1 = 0) {
    if (enabled()) {
      name_ = name;
      cat_ = cat;
      a0_ = a0;
      a1_ = a1;
      t0_ = detail::span_begin();
    }
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Record now instead of at scope exit. Idempotent.
  void close() {
    if (name_ != nullptr) {
      detail::span_end(name_, cat_, t0_, a0_, a1_);
      name_ = nullptr;
    }
  }

  /// Adjust the payload arguments before the span closes (e.g. byte
  /// counts or cache-hit flags known only mid-scope).
  void set_arg(std::int64_t a0) { a0_ = a0; }
  void set_aux(std::int32_t a1) { a1_ = a1; }

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::int64_t a0_ = 0;
  std::int32_t a1_ = 0;
  Cat cat_ = Cat::Run;
};

/// Record a zero-duration event (message deliveries, cache probes).
inline void instant(const char* name, Cat cat, std::int64_t a0 = 0,
                    std::int32_t a1 = 0) {
  if (enabled()) {
    detail::record_instant(name, cat, a0, a1);
  }
}

/// A snapshot of every thread's ring buffer, flattened and sorted by
/// (rank, start time). `dropped` counts events lost to ring wraparound.
struct TraceData {
  struct Rec {
    std::string name;
    Cat cat = Cat::Run;
    int rank = 0;
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    std::int64_t a0 = 0;
    std::int32_t a1 = 0;
    std::uint8_t depth = 0;
  };
  std::vector<Rec> events;
  std::uint64_t dropped = 0;

  bool empty() const { return events.empty(); }
};

/// Snapshot all buffers — this process's rings plus any records merged
/// in via import_file(). Call when writers are quiescent (ranks joined
/// or behind a barrier) for a complete picture.
TraceData collect();

/// Discard all recorded events, including imported ones (buffers are
/// kept). Same quiescence caveat as collect().
void reset();

// --- Cross-process aggregation (process_shm transport) -----------------
//
// Rank processes cannot share ring buffers, so each child serializes its
// snapshot to a file before _exit and the launcher merges the files back
// into this registry. Timestamps are per-process (ns since the trace
// epoch pinned at first use), but the epoch itself sits on the
// system-wide CLOCK_MONOTONIC timeline, so records realign exactly:
// merged_t = t + (their_epoch_monotonic - our_epoch_monotonic).

/// Absolute CLOCK_MONOTONIC position of this process's trace epoch, in
/// nanoseconds. Pins the epoch if no event has been recorded yet.
std::uint64_t epoch_monotonic_ns();

/// Serialize collect() plus this process's epoch to a binary file.
/// Throws std::runtime_error if the file cannot be written.
void save_file(const std::string& path);

/// Merge a save_file() produced by another process into this registry,
/// realigning timestamps onto the local epoch. Imported records show up
/// in collect() (tagged with their recorded ranks) until reset().
/// Returns false if the file is missing or malformed.
bool import_file(const std::string& path);

}  // namespace jitfd::obs
