// Measured halo-exchange step time of the three DMP patterns on the
// thread-backed substrate (2-8 ranks). Complements the analytical model:
// these are *real* exchanges through the runtime used by every test, at
// laptop scale, demonstrating the relative per-exchange costs (buffer
// allocation in basic, message count in diagonal, start/wait split in
// full) and the halo-spot optimization ablation.
//
// A second entry point, --drift, runs one traced diffusion step loop per
// pattern, lifts the trace into the perfmodel's measured-vs-predicted
// comparison (perfmodel/compare.h), and emits the drift gates (overlap
// efficiency, comm fraction) through the series schema's "drift" object
// — bench/BENCH_drift.json is a committed run, and the perf sentinel
// holds fresh runs inside the committed bands. --band=X sets the allowed
// |measured - predicted| drift recorded in the emitted report (only the
// BASELINE's band is contractual); --band-overlap/--band-comm override
// it per metric.
//
// --transport=threads|process_shm selects the rank realization for every
// benchmark in this binary (default: threads, or JITFD_TRANSPORT).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "bench_util.h"
#include "core/operator.h"
#include "grid/function.h"
#include "obs/analysis.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "perfmodel/compare.h"
#include "perfmodel/kernel_spec.h"
#include "perfmodel/machine.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

constexpr std::int64_t kEdge = 96;
constexpr int kStepsPerIteration = 20;

// Set once in main() from --transport=; unset follows JITFD_TRANSPORT.
std::optional<smpi::TransportKind> g_transport;

void run_steps(benchmark::State& state, ir::MpiMode mode, int nranks,
               int space_order, bool halo_opt) {
  std::int64_t steps_done = 0;
  for (auto _ : state) {
    smpi::launch({.nranks = nranks, .transport = g_transport},
                 [&](smpi::Communicator& comm) {
      const Grid g({kEdge, kEdge}, {1.0, 1.0}, comm);
      TimeFunction u("u", g, space_order, 1);
      u.fill_global_box(0, std::vector<std::int64_t>{kEdge / 4, kEdge / 4},
                        std::vector<std::int64_t>{kEdge / 2, kEdge / 2},
                        1.0F);
      ir::CompileOptions opts;
      opts.mode = mode;
      opts.halo_opt = halo_opt;
      Operator op({ir::Eq(u.forward(),
                          sym::solve(u.dt() - u.laplace(), sym::Ex(0),
                                     u.forward()))},
                  opts);
      const auto run = op.apply({.time_m = 0,
                                 .time_M = kStepsPerIteration - 1,
                                 .scalars = {{"dt", 1e-4}}});
      if (comm.rank() == 0) {
        const auto& stats = run.halo;
        state.counters["msgs/step"] = static_cast<double>(stats.messages) /
                                      kStepsPerIteration;
        state.counters["bytes/step"] =
            static_cast<double>(stats.bytes_sent) / kStepsPerIteration;
        // Transport-level evidence for the zero-copy hot path: mean
        // payload copies per message (1.0 = every delivery rendezvous)
        // and the unexpected-payload pool's allocation behaviour
        // (misses stop after warmup, hits take over).
        state.counters["copies/msg"] = stats.copies_per_message;
        state.counters["pool_hits"] = static_cast<double>(stats.pool_hits);
        state.counters["pool_misses"] =
            static_cast<double>(stats.pool_misses);
      }
                 });
    steps_done += kStepsPerIteration;
  }
  state.SetItemsProcessed(steps_done * kEdge * kEdge);
  state.counters["steps"] = static_cast<double>(steps_done);
}

void BM_HaloBasic(benchmark::State& state) {
  run_steps(state, ir::MpiMode::Basic, static_cast<int>(state.range(0)),
            static_cast<int>(state.range(1)), true);
}
void BM_HaloDiagonal(benchmark::State& state) {
  run_steps(state, ir::MpiMode::Diagonal, static_cast<int>(state.range(0)),
            static_cast<int>(state.range(1)), true);
}
void BM_HaloFull(benchmark::State& state) {
  run_steps(state, ir::MpiMode::Full, static_cast<int>(state.range(0)),
            static_cast<int>(state.range(1)), true);
}
void BM_HaloBasicNoOpt(benchmark::State& state) {
  // Ablation: halo-spot drop/merge disabled — redundant exchanges remain.
  run_steps(state, ir::MpiMode::Basic, static_cast<int>(state.range(0)),
            static_cast<int>(state.range(1)), false);
}

// --drift: model-vs-measured drift gates per pattern. Each repetition
// is a traced diffusion run; the trace is collected in the parent after
// launch() returns (so it works under both transports — the process
// transport merges child traces at that point), distilled into a
// RunProfile + cross-rank AnalysisReport, and compared against the
// ScalingModel. The |measured - predicted| drift of overlap efficiency
// and comm fraction lands in the series' "drift" object; wall seconds
// and the structural message counters ride along.
int run_drift(int argc, char** argv) {
  namespace obs = jitfd::obs;
  namespace perf = jitfd::perf;

  const int nranks =
      std::stoi(benchutil::arg_value(argc, argv, "ranks", "4"));
  const std::int64_t edge =
      std::stoll(benchutil::arg_value(argc, argv, "edge", "64"));
  const int steps = std::stoi(benchutil::arg_value(argc, argv, "steps", "20"));
  const int reps = std::stoi(benchutil::arg_value(argc, argv, "reps", "3"));
  const int so = std::stoi(benchutil::arg_value(argc, argv, "so", "4"));
  const std::string band_s = benchutil::arg_value(argc, argv, "band", "0.25");
  const double band_overlap = std::stod(
      benchutil::arg_value(argc, argv, "band-overlap", band_s));
  const double band_comm =
      std::stod(benchutil::arg_value(argc, argv, "band-comm", band_s));
  const std::string out = benchutil::arg_value(argc, argv, "out", "");

  // Near-square 2-D process grid, chosen parent-side so the structural
  // comparison knows the topology without a communicator.
  int rows_n = static_cast<int>(std::sqrt(static_cast<double>(nranks)));
  while (rows_n > 1 && nranks % rows_n != 0) {
    --rows_n;
  }
  const std::vector<int> topology{nranks / rows_n, rows_n};

  const perf::ScalingModel model(perf::archer2_node(), perf::acoustic_spec(),
                                 perf::Target::Cpu);
  perf::DriftBands bands;
  bands.overlap_efficiency = band_overlap;
  bands.comm_fraction = band_comm;

  std::vector<benchutil::MeasuredSeries> rows;
  std::vector<perf::Comparison> comparisons;
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    benchutil::MeasuredSeries series;
    series.name = ir::to_string(mode);
    for (int rep = -1; rep < reps; ++rep) {
      obs::reset();
      smpi::launch({.nranks = nranks, .transport = g_transport},
                   [&](smpi::Communicator& comm) {
        const Grid g({edge, edge}, {1.0, 1.0}, comm, topology);
        TimeFunction u("u", g, so, 1);
        u.fill_global_box(0, std::vector<std::int64_t>{edge / 4, edge / 4},
                          std::vector<std::int64_t>{edge / 2, edge / 2},
                          1.0F);
        ir::CompileOptions opts;
        opts.mode = mode;
        Operator op({ir::Eq(u.forward(),
                            sym::solve(u.dt() - u.laplace(), sym::Ex(0),
                                       u.forward()))},
                    opts);
        op.apply({.time_m = 0,
                  .time_M = steps - 1,
                  .scalars = {{"dt", 1e-4}},
                  .trace = true});
                   });
      const obs::TraceData data = obs::collect();
      const obs::RunProfile profile = obs::profile_from(data);
      if (rep < 0) {
        continue;  // Warmup (JIT of nothing, SMPI pools): not recorded.
      }
      series.seconds.push_back(profile.wall_s());
      if (rep + 1 == reps) {
        // Final repetition carries the comparison: structural counters
        // are identical across reps, timing uses this run's trace.
        const obs::AnalysisReport analysis = obs::analyze(data);
        const perf::MeasuredRun measured = perf::measured_from(
            profile, analysis, "diffusion", mode, so, edge * edge * steps,
            steps);
        const perf::Comparison cmp =
            perf::compare_run(measured, model, topology, {edge, edge});
        series.counters["msgs_per_step"] =
            static_cast<double>(measured.messages) / steps;
        series.counters["bytes_per_step"] = cmp.measured_bytes_per_step;
        series.counters["messages_match"] = cmp.messages_match() ? 1.0 : 0.0;
        for (const perf::DriftGate& gate : perf::drift_gates(cmp, bands)) {
          series.drift[gate.metric] = {gate.drift, gate.band};
        }
        comparisons.push_back(cmp);
      }
    }
    rows.push_back(std::move(series));
  }

  std::fputs(perf::comparison_table(comparisons).c_str(), stdout);
  const std::string json = benchutil::series_json(
      "drift",
      "Model-vs-measured drift gates per halo pattern: traced diffusion "
      "runs distilled into overlap-efficiency and comm-fraction drifts "
      "against the analytical model. The committed baseline's band per "
      "metric is the perfmodel contract the sentinel enforces.",
      rows,
      {{"geometry", std::to_string(edge) + "^2 grid, " +
                        std::to_string(nranks) + " ranks, space order " +
                        std::to_string(so)},
       {"steps_per_repetition", std::to_string(steps)}});
  std::fputs(json.c_str(), stdout);
  if (!out.empty()) {
    std::ofstream f(out);
    f << json;
  }
  return 0;
}

}  // namespace

BENCHMARK(BM_HaloBasic)->Args({4, 4})->Args({4, 8})->Args({8, 8});
BENCHMARK(BM_HaloDiagonal)->Args({4, 4})->Args({4, 8})->Args({8, 8});
BENCHMARK(BM_HaloFull)->Args({4, 4})->Args({4, 8})->Args({8, 8});
BENCHMARK(BM_HaloBasicNoOpt)->Args({4, 8});

int main(int argc, char** argv) {
  // Consume --transport= before google-benchmark sees (and rejects) it.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      try {
        g_transport = smpi::transport_from_string(argv[i] + 12);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (benchutil::has_flag(argc, argv, "drift")) {
    return run_drift(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
