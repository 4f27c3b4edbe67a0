// Lightweight metrics registry: named counters, gauges and histograms
// populated by instrumented sites (halo runtime, JIT cache, SMPI
// transport, operator runs) and by the offline cross-rank analyzer
// (obs/analysis.h), exported as stable machine-readable JSON.
//
// Cost model — identical to trace.h:
//  - compiled out      — with -DJITFD_OBS=OFF, enabled() is a constexpr
//    false and every mutation folds to nothing (the registry still
//    exists so exports stay linkable, but it only ever reports zeros).
//  - disabled at runtime (default) — one relaxed atomic load and a
//    predicted branch per site.
//  - enabled           — one relaxed atomic RMW per counter/gauge
//    update; histograms add one more for the bucket.
//
// Hot sites amortize the name lookup with a function-local static:
//
//   static obs::metrics::Counter& c = obs::metrics::counter("halo.messages");
//   c.add(1);
//
// Instruments are process-wide (ranks are threads and share one
// registry) and never destroyed, so rank threads that outlive static
// teardown stay safe — the same leak-on-purpose policy as the trace
// ring registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace jitfd::obs {
class JsonWriter;
}  // namespace jitfd::obs

namespace jitfd::obs::metrics {

#ifndef JITFD_OBS_DISABLED
namespace detail {
extern std::atomic<std::uint32_t> g_enabled;
}  // namespace detail

/// Whether sites record (the JITFD_METRICS=1 environment variable sets
/// it before main; set_enabled flips it at runtime).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed) != 0;
}
#else
constexpr bool enabled() { return false; }
#endif

void set_enabled(bool on);

/// Monotonic event count. add() is wait-free and safe from any rank
/// thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins sampled value (overlap efficiency, copies/message,
/// imbalance ratio, ...).
class Gauge {
 public:
  void set(double v) {
    if (enabled()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed distribution over a fixed range. Bucket i counts
/// observations <= kBucketBase * 2^i seconds (or whatever unit the
/// site observes in); the last bucket is +Inf. Exposes Prometheus-style
/// cumulative buckets plus sum and count.
class Histogram {
 public:
  static constexpr int kBuckets = 24;
  static constexpr double kBucketBase = 1e-6;  ///< First upper bound.

  void observe(double v);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Non-cumulative count of bucket i.
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }
  /// Upper bound of bucket i (+Inf for the last).
  static double upper_bound(int i);
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Look up (registering on first use) an instrument. The returned
/// reference lives forever; a name registered as one kind must not be
/// reused as another (throws std::logic_error).
///
/// `help` attaches a one-line description, exported as the JSON "help"
/// field. The description
/// sticks to the instrument: a later lookup without (or with an empty)
/// help keeps the existing text, and the first non-empty help wins.
Counter& counter(std::string_view name, std::string_view help = {});
Gauge& gauge(std::string_view name, std::string_view help = {});
Histogram& histogram(std::string_view name, std::string_view help = {});

/// Zero every registered instrument (registrations are kept). Meant for
/// quiescent moments, like trace reset().
void reset();

/// One registered instrument, snapshotted (export order is the sorted
/// name order, so the formats are stable across runs).
struct Snapshot {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  std::string help;  ///< One-line description ("" when never given).
  Kind kind = Kind::Counter;
  std::uint64_t count = 0;  ///< Counter value / histogram count.
  double value = 0.0;       ///< Gauge value / histogram sum.
  std::vector<std::pair<double, std::uint64_t>> buckets;  ///< (le, cumulative).
};

std::vector<Snapshot> snapshot();

/// Stable machine-readable export:
///   {"metrics": [{"name": ..., "type": "counter"|"gauge"|"histogram",
///                 "help": ..., "value": ...} | {..., "count": N,
///                 "sum": S, "buckets": [{"le": ..., "count": ...}, ...]}]}
/// The last bucket's "le" is the string "+Inf"; a non-finite gauge value
/// or sum is null.
std::string to_json();
/// The same document, written into an enclosing export.
void write_json(JsonWriter& w);

}  // namespace jitfd::obs::metrics
