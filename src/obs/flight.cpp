#include "obs/flight.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "core/env.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace jitfd::obs::flight {

namespace {

/// Trace tail length per rank: enough for a story, small enough that
/// a dump stays a few hundred KB.
constexpr std::size_t kTraceTailPerRank = 128;

/// Per-rank current-step slots (ranks are threads of one process; the
/// SMPI substrate caps world sizes far below this).
constexpr int kMaxRanks = 256;

struct State {
  std::mutex mtx;  ///< Guards config and health.
  std::map<std::string, std::string> config;
  std::deque<HealthRec> health;
  std::mutex dump_mtx;    ///< Serializes dump(); guards dump_path.
  std::string dump_path;  ///< Set once the bundle is written.
};

State& state() {
  static State* s = new State;  // Leaked: see trace.cpp registry note.
  return *s;
}

std::atomic<std::int64_t> g_steps[kMaxRanks];
std::atomic<int> g_max_rank{-1};
std::atomic<bool> g_dumped{false};

std::string build_bundle(const std::string& reason, int rank,
                         std::int64_t step, const std::string& detail) {
  JsonWriter w;
  w.begin_object().key("flight").begin_object();
  w.field("schema_version", 3)
      .field("reason", reason)
      .field("rank", rank)
      .field("step", step)
      .field("detail", detail);

  State& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mtx);
    w.key("config").begin_object();
    for (const auto& [k, v] : s.config) {
      w.key(k).raw(v);
    }
    w.end().key("health").begin_array();
    for (const HealthRec& h : s.health) {
      w.begin_object()
          .field("step", h.step)
          .field("field", h.field)
          .field("field_id", h.field_id)
          .field("nan", h.nan_count)
          .field("inf", h.inf_count)
          .field("min", h.min)
          .field("max", h.max)
          .field("l2", h.l2)
          .field("bad_rank", h.bad_rank)
          .end();
    }
    w.end();
  }

  w.key("steps").begin_array();
  const int max_rank = g_max_rank.load(std::memory_order_relaxed);
  for (int r = 0; r <= max_rank && r < kMaxRanks; ++r) {
    w.begin_object()
        .field("rank", r)
        .field("step", g_steps[r].load(std::memory_order_relaxed))
        .end();
  }
  w.end();

  // Trace-ring tail, newest kTraceTailPerRank spans per rank.
  const TraceData trace = obs::collect();
  std::map<int, std::vector<const TraceData::Rec*>> by_rank;
  for (const TraceData::Rec& rec : trace.events) {
    by_rank[rec.rank].push_back(&rec);
  }
  w.key("trace").begin_array();
  for (const auto& [r, recs] : by_rank) {
    const std::size_t begin =
        recs.size() > kTraceTailPerRank ? recs.size() - kTraceTailPerRank : 0;
    for (std::size_t i = begin; i < recs.size(); ++i) {
      const TraceData::Rec& rec = *recs[i];
      w.begin_object()
          .field("name", rec.name)
          .field("cat", obs::to_string(rec.cat))
          .field("rank", rec.rank)
          .field("t0_ns", rec.t0_ns)
          .field("t1_ns", rec.t1_ns)
          .field("a0", rec.a0)
          .field("a1", rec.a1)
          .end();
    }
  }
  w.end().end().end();
  return w.take();
}

void signal_handler(int sig) {
  // Not async-signal-safe, but the process is dying anyway; a partial
  // bundle beats none. Restore the default disposition first so a
  // second fault during the dump terminates instead of recursing.
  std::signal(sig, SIG_DFL);
  dump("signal:" + std::to_string(sig), -1, -1, "fatal signal");
  std::raise(sig);
}

std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void terminate_handler() {
  std::string what = "(unknown)";
  if (const std::exception_ptr p = std::current_exception()) {
    try {
      std::rethrow_exception(p);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
  }
  dump("uncaught_exception", -1, -1, what);
  if (g_prev_terminate != nullptr) {
    g_prev_terminate();
  }
  std::abort();
}

}  // namespace

void set_config(const std::string& key, const std::string& json_value) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mtx);
  s.config[key] = json_value;
}

void record_health(const HealthRec& rec) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mtx);
  s.health.push_back(rec);
  while (s.health.size() > kHealthRing) {
    s.health.pop_front();
  }
}

void note_step(int rank, std::int64_t step) {
  if (rank < 0 || rank >= kMaxRanks) {
    return;
  }
  g_steps[rank].store(step, std::memory_order_relaxed);
  int prev = g_max_rank.load(std::memory_order_relaxed);
  while (rank > prev && !g_max_rank.compare_exchange_weak(
                            prev, rank, std::memory_order_relaxed)) {
  }
}

std::string dump(const std::string& reason, int rank, std::int64_t step,
                 const std::string& detail) {
  // A fault while this thread writes the bundle re-enters through the
  // crash handlers; it must not wait on itself.
  thread_local bool t_writing = false;
  if (t_writing) {
    return "";
  }
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.dump_mtx);
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) {
    return s.dump_path;  // First reason wins; "" if its write failed.
  }
  const std::string dir = jitfd::env::get_string("JITFD_FLIGHT_DIR", "");
  const std::string path = !dir.empty() ? dir + "/jitfd_flight.json"
                                        : std::string("jitfd_flight.json");
  t_writing = true;
  const std::string bundle = build_bundle(reason, rank, step, detail);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bundle;
  out.close();
  t_writing = false;
  if (!out) {
    std::fprintf(stderr, "jitfd: flight bundle not written to %s: %s\n",
                 path.c_str(), std::strerror(errno));
    return "";
  }
  s.dump_path = path;
  return path;
}

bool dumped() { return g_dumped.load(std::memory_order_acquire); }

void reset_for_testing() {
  State& s = state();
  const std::lock_guard<std::mutex> dump_lock(s.dump_mtx);
  const std::lock_guard<std::mutex> lock(s.mtx);
  g_dumped.store(false, std::memory_order_release);
  s.dump_path.clear();
  s.health.clear();
  g_max_rank.store(-1, std::memory_order_relaxed);
}

void install_crash_handlers() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_prev_terminate = std::set_terminate(&terminate_handler);
    for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGILL, SIGBUS}) {
      std::signal(sig, &signal_handler);
    }
  });
}

}  // namespace jitfd::obs::flight
