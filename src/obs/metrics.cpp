#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>

#include "core/env.h"
#include "obs/json.h"

namespace jitfd::obs::metrics {

#ifndef JITFD_OBS_DISABLED
namespace detail {

namespace {
std::uint32_t init_from_env() {
  return jitfd::env::get_bool("JITFD_METRICS", false) ? 1u : 0u;
}
}  // namespace

std::atomic<std::uint32_t> g_enabled{init_from_env()};

}  // namespace detail
#endif

void set_enabled(bool on) {
#ifndef JITFD_OBS_DISABLED
  detail::g_enabled.store(on ? 1u : 0u, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

namespace {

struct Instrument {
  Snapshot::Kind kind;
  std::string help;
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
};

// The registry is leaked so rank threads that outlive static teardown
// can still touch instruments they cached by reference.
struct Registry {
  std::mutex mu;
  std::map<std::string, Instrument, std::less<>> instruments;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

template <class T>
T& lookup(std::string_view name, std::string_view help, Snapshot::Kind kind,
          T* Instrument::*slot) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.instruments.find(name);
  if (it == r.instruments.end()) {
    Instrument inst;
    inst.kind = kind;
    inst.help = std::string(help);
    inst.*slot = new T();
    it = r.instruments.emplace(std::string(name), inst).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs::metrics: instrument '" + std::string(name) +
                           "' already registered as a different kind");
  } else if (it->second.help.empty() && !help.empty()) {
    it->second.help = std::string(help);
  }
  return *(it->second.*slot);
}

const char* kind_name(Snapshot::Kind k) {
  switch (k) {
    case Snapshot::Kind::Counter: return "counter";
    case Snapshot::Kind::Gauge: return "gauge";
    case Snapshot::Kind::Histogram: return "histogram";
  }
  return "?";
}

}  // namespace

void Histogram::observe(double v) {
  if (!enabled()) return;
  int b = kBuckets - 1;
  double ub = kBucketBase;
  for (int i = 0; i < kBuckets - 1; ++i, ub *= 2.0) {
    if (v <= ub) {
      b = i;
      break;
    }
  }
  buckets_[static_cast<std::size_t>(b)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::upper_bound(int i) {
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  return kBucketBase * std::ldexp(1.0, i);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& counter(std::string_view name, std::string_view help) {
  return lookup<Counter>(name, help, Snapshot::Kind::Counter,
                         &Instrument::counter);
}

Gauge& gauge(std::string_view name, std::string_view help) {
  return lookup<Gauge>(name, help, Snapshot::Kind::Gauge, &Instrument::gauge);
}

Histogram& histogram(std::string_view name, std::string_view help) {
  return lookup<Histogram>(name, help, Snapshot::Kind::Histogram,
                           &Instrument::histogram);
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, inst] : r.instruments) {
    switch (inst.kind) {
      case Snapshot::Kind::Counter: inst.counter->reset(); break;
      case Snapshot::Kind::Gauge: inst.gauge->reset(); break;
      case Snapshot::Kind::Histogram: inst.histogram->reset(); break;
    }
  }
}

std::vector<Snapshot> snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<Snapshot> out;
  out.reserve(r.instruments.size());
  for (const auto& [name, inst] : r.instruments) {
    Snapshot s;
    s.name = name;
    s.help = inst.help;
    s.kind = inst.kind;
    switch (inst.kind) {
      case Snapshot::Kind::Counter:
        s.count = inst.counter->value();
        break;
      case Snapshot::Kind::Gauge:
        s.value = inst.gauge->value();
        break;
      case Snapshot::Kind::Histogram: {
        s.count = inst.histogram->count();
        s.value = inst.histogram->sum();
        std::uint64_t cum = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          cum += inst.histogram->bucket(i);
          s.buckets.emplace_back(Histogram::upper_bound(i), cum);
        }
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

void write_json(JsonWriter& w) {
  w.begin_object().key("metrics").begin_array();
  for (const Snapshot& s : snapshot()) {
    w.begin_object()
        .field("name", s.name)
        .field("type", kind_name(s.kind))
        .field("help", s.help);
    switch (s.kind) {
      case Snapshot::Kind::Counter:
        w.field("value", s.count);
        break;
      case Snapshot::Kind::Gauge:
        w.field("value", s.value);
        break;
      case Snapshot::Kind::Histogram:
        w.field("count", s.count).field("sum", s.value).key("buckets");
        w.begin_array();
        for (const auto& [le, cum] : s.buckets) {
          w.begin_object().key("le");
          if (std::isinf(le)) {
            w.value("+Inf");
          } else {
            w.value(le);
          }
          w.field("count", cum).end();
        }
        w.end();
        break;
    }
    w.end();
  }
  w.end().end();
}

std::string to_json() {
  JsonWriter w;
  write_json(w);
  return w.take();
}

}  // namespace jitfd::obs::metrics
