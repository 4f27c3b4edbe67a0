// Tracing-overhead proof: the acoustic propagator with tracing enabled
// must run within 2% of the same run with tracing disabled (the obs
// subsystem's headline cost claim). The cross-rank analysis runs
// offline on the collected snapshot — after the timed window — and its
// cost is reported separately to prove it stays off the hot path.
//
//   ./bench_trace_overhead [--check] [--steps=N]
//
// --check exits 1 when the measured overhead exceeds the 2% threshold
// (retrying a few times first — the comparison of two ~100 ms
// wall-clock runs is noisy on shared CI hosts). A bad argument exits 2.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>

#include "bench_util.h"
#include "core/operator.h"
#include "models/acoustic.h"
#include "obs/analysis.h"
#include "obs/trace.h"

using jitfd::grid::Grid;
using jitfd::models::AcousticModel;

namespace {

constexpr double kThresholdPct = 2.0;

struct Sample {
  double seconds = 0.0;
  std::uint64_t events = 0;
  double analysis_seconds = 0.0;
};

// One acoustic shot (serial, interpreter backend: the instrumented
// per-step path, deterministic and compiler-independent). For traced
// shots the cross-rank analysis runs after the timed window.
Sample shot(bool trace, int steps) {
  jitfd::obs::reset();
  const Grid grid({64, 64}, {640.0, 640.0});
  AcousticModel model(
      grid, /*so=*/4, [](std::span<const std::int64_t>) { return 1.5; },
      /*vmax=*/1.5, /*nbl=*/8);
  model.wavefield().fill_global_box(0, std::vector<std::int64_t>{30, 30},
                                    std::vector<std::int64_t>{34, 34}, 1e-3F);
  auto op = model.make_operator({});
  const double dt = model.critical_dt();

  const auto t0 = std::chrono::steady_clock::now();
  const auto run = op->apply({.time_m = 1,
                              .time_M = steps,
                              .scalars = model.scalars(dt),
                              .trace = trace});
  const auto t1 = std::chrono::steady_clock::now();

  Sample s;
  s.seconds = std::chrono::duration<double>(t1 - t0).count();
  if (run.trace.active()) {
    const jitfd::obs::TraceData data = run.trace.data();
    s.events = data.events.size();
    // Offline analysis: outside the timed window by construction.
    const auto a0 = std::chrono::steady_clock::now();
    const jitfd::obs::AnalysisReport rep = jitfd::obs::analyze(data);
    const auto a1 = std::chrono::steady_clock::now();
    s.analysis_seconds = std::chrono::duration<double>(a1 - a0).count();
    if (rep.steps == 0) {
      std::fprintf(stderr, "analysis saw no steps in a traced run\n");
    }
  }
  return s;
}

// Best-of-n for both configurations, interleaved so slow background
// noise hits them evenly; best-of is the least noise-sensitive verdict.
struct Measurement {
  double disabled_s = 1e30;
  double enabled_s = 1e30;
  std::uint64_t events = 0;
  double analysis_s = 0.0;
  double overhead_pct() const {
    return disabled_s > 0.0 && disabled_s < 1e29
               ? 100.0 * (enabled_s - disabled_s) / disabled_s
               : 0.0;
  }
};

void measure(Measurement& m, int steps, int reps) {
  shot(false, steps);  // Warm up allocators and code paths.
  for (int r = 0; r < reps; ++r) {
    const Sample off = shot(false, steps);
    m.disabled_s = std::min(m.disabled_s, off.seconds);
    const Sample on = shot(true, steps);
    m.enabled_s = std::min(m.enabled_s, on.seconds);
    m.events = std::max(m.events, on.events);
    m.analysis_s = std::max(m.analysis_s, on.analysis_seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv,
                             "bench_trace_overhead [--check] [--steps=N]",
                             {"check", "steps"});
  const bool check = args.flag("check");
  const int steps = args.number("steps", args.get("steps", "400"));
  if (steps < 1) {
    args.fail("--steps must be at least 1");
  }

  Measurement m;
  measure(m, steps, /*reps=*/3);
  // A noisy host can make two identical runs differ by more than the
  // threshold; retry before declaring the instrumentation guilty.
  int retries = check ? 3 : 0;
  while (m.overhead_pct() > kThresholdPct && retries-- > 0) {
    std::printf("overhead %.2f%% > %.1f%%, retrying (%d left)...\n",
                m.overhead_pct(), kThresholdPct, retries + 1);
    measure(m, steps, /*reps=*/5);
  }

  const bool passed = m.overhead_pct() <= kThresholdPct;
  std::printf("acoustic 64x64, %d steps (interpreter):\n", steps);
  std::printf("  tracing disabled: %8.3f ms\n", 1e3 * m.disabled_s);
  std::printf("  tracing enabled:  %8.3f ms  (%llu events)\n",
              1e3 * m.enabled_s, static_cast<unsigned long long>(m.events));
  std::printf("  offline analysis: %8.3f ms (post-run, untimed window)\n",
              1e3 * m.analysis_s);
  std::printf("  overhead: %+.2f%%  (threshold %.1f%%) -> %s\n",
              m.overhead_pct(), kThresholdPct, passed ? "PASS" : "FAIL");

  return check && !passed ? 1 : 0;
}
