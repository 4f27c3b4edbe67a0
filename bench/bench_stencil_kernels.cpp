// Measured single-rank update throughput of the four wave-propagator
// kernels through both execution backends: the reference interpreter and
// JIT-compiled generated C (when a system C compiler is present). The
// JIT/interpreter ratio shows what the code-generation path buys; the
// per-kernel ordering mirrors the flops-per-point ordering of Figure 7.
//
//   ./bench_stencil_kernels [--reps=N] [--out=FILE.json]
//
// Output is the shared bench_util.h series schema (sentinel-consumable);
// default FILE is BENCH_stencil.json in the working directory. JIT
// series are skipped (not emitted) when no C compiler is available, so
// the sentinel baseline for CI should be generated on a host with one.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;

constexpr std::int64_t kEdge = 48;
// A multiple of the health-probe interval below, so every rep of the
// health series amortizes exactly one check (5 steps would put a check
// in only 5 of 8 reps and make the median rep meaningless).
constexpr int kStepsPerRep = 8;

bool have_cc() {
  static const bool ok = std::system("cc --version > /dev/null 2>&1") == 0;
  return ok;
}

template <typename Model>
benchutil::MeasuredSeries run_kernel(const std::string& name,
                                     core::Backend backend, int so,
                                     int reps,
                                     std::int64_t health_interval = 0,
                                     std::vector<std::int64_t> tile = {}) {
  const Grid g({kEdge, kEdge}, {1.0, 1.0});
  Model model(g, so);
  model.wavefield().fill_global_box(
      0, std::vector<std::int64_t>{kEdge / 4, kEdge / 4},
      std::vector<std::int64_t>{kEdge / 2, kEdge / 2}, 1.0F);
  jitfd::ir::CompileOptions opts;
  opts.tile = std::move(tile);
  auto op = model.make_operator(opts);
  op->set_default_backend(backend);
  const double dt = model.critical_dt();
  std::int64_t time = 0;
  // Warm up (forces the JIT compile outside the timed loop).
  op->apply({.time_m = time, .time_M = time, .scalars = model.scalars(dt),
             .health_interval = health_interval});
  ++time;

  benchutil::MeasuredSeries s;
  s.name = name;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    op->apply({.time_m = time, .time_M = time + kStepsPerRep - 1,
               .scalars = model.scalars(dt),
               .health_interval = health_interval});
    const auto t1 = std::chrono::steady_clock::now();
    time += kStepsPerRep;
    s.seconds.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  // Counters are machine-independent by design (the sentinel checks
  // them exactly); throughput is derived from median_seconds at read
  // time and printed below, not committed.
  s.counters["so"] = so;
  s.counters["steps_per_rep"] = kStepsPerRep;
  s.counters["points_per_rep"] =
      static_cast<double>(kStepsPerRep) * kEdge * kEdge;
  if (health_interval > 0) {
    s.counters["health_interval"] = static_cast<double>(health_interval);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps =
      std::atoi(benchutil::arg_value(argc, argv, "reps", "5").c_str());
  const std::string out_path =
      benchutil::arg_value(argc, argv, "out", "BENCH_stencil.json");
  const bool jit = have_cc();
  if (!jit) {
    std::printf("no C compiler found: JIT series skipped\n");
  }

  using jitfd::models::AcousticModel;
  using jitfd::models::ElasticModel;
  using jitfd::models::TtiModel;
  using jitfd::models::ViscoelasticModel;
  constexpr auto kInterp = core::Backend::Interpret;
  constexpr auto kJit = core::Backend::Jit;

  std::vector<benchutil::MeasuredSeries> rows;
  rows.push_back(
      run_kernel<AcousticModel>("acoustic_interp/so4", kInterp, 4, reps));
  rows.push_back(
      run_kernel<AcousticModel>("acoustic_interp/so8", kInterp, 8, reps));
  rows.push_back(run_kernel<TtiModel>("tti_interp/so4", kInterp, 4, reps));
  rows.push_back(
      run_kernel<ElasticModel>("elastic_interp/so4", kInterp, 4, reps));
  rows.push_back(run_kernel<ViscoelasticModel>("viscoelastic_interp/so4",
                                               kInterp, 4, reps));
  // Health-check overhead probe: the same acoustic kernel with the
  // generated NaN/Inf/min/max/L2 reductions firing every 8 steps.
  rows.push_back(run_kernel<AcousticModel>("acoustic_interp/so4/health8",
                                           kInterp, 4, reps, 8));
  if (jit) {
    rows.push_back(
        run_kernel<AcousticModel>("acoustic_jit/so4", kJit, 4, reps));
    rows.push_back(
        run_kernel<AcousticModel>("acoustic_jit/so8", kJit, 8, reps));
    rows.push_back(run_kernel<TtiModel>("tti_jit/so4", kJit, 4, reps));
    rows.push_back(
        run_kernel<ElasticModel>("elastic_jit/so4", kJit, 4, reps));
    rows.push_back(run_kernel<ViscoelasticModel>("viscoelastic_jit/so4",
                                                 kJit, 4, reps));
    rows.push_back(run_kernel<AcousticModel>("acoustic_jit/so4/health8",
                                             kJit, 4, reps, 8));
    // The flagship propagator is the representative overhead series:
    // the sweep touches each checked field once, so its relative cost
    // shrinks with the kernel's arithmetic density. The 48^2 acoustic
    // pair above is the adversarial case (an L1-resident minimal
    // stencil where one field sweep is comparable to one step).
    rows.push_back(
        run_kernel<TtiModel>("tti_jit/so4/health8", kJit, 4, reps, 8));
    // Tiled/untiled pairs: the untiled series above are the baselines.
    // At 48^2 the working set is cache-resident, so this measures the
    // tiling machinery's overhead (window ternaries, tile-loop startup),
    // which the sentinel keeps honest; the cache win itself needs grids
    // past LLC size (DESIGN.md, tiling section).
    rows.push_back(run_kernel<AcousticModel>("acoustic_jit/so4/tile16", kJit,
                                             4, reps, 0, {16, 0}));
    rows.push_back(
        run_kernel<TtiModel>("tti_jit/so4/tile16", kJit, 4, reps, 0, {16, 0}));
  }

  for (const benchutil::MeasuredSeries& s : rows) {
    const double med = benchutil::median_of(s.seconds);
    const double gpts =
        med > 0.0 ? s.counters.at("points_per_rep") / med / 1e9 : 0.0;
    std::printf("  %-26s %9.3f ms  %8.4f GPts/s  (spread %.1f%%)\n",
                s.name.c_str(), 1e3 * med, gpts,
                benchutil::spread_pct_of(s.seconds));
  }

  // Health overhead relative to the matching plain series.
  auto median_by = [&rows](const std::string& name) -> double {
    for (const benchutil::MeasuredSeries& s : rows) {
      if (s.name == name) {
        return benchutil::median_of(s.seconds);
      }
    }
    return 0.0;
  };
  for (const auto& [plain, checked] :
       std::vector<std::pair<std::string, std::string>>{
           {"acoustic_interp/so4", "acoustic_interp/so4/health8"},
           {"acoustic_jit/so4", "acoustic_jit/so4/health8"},
           {"tti_jit/so4", "tti_jit/so4/health8"}}) {
    const double base = median_by(plain);
    const double with = median_by(checked);
    if (base > 0.0 && with > 0.0) {
      std::printf("  health_interval=8 overhead on %s: %+.2f%%\n",
                  plain.c_str(), 100.0 * (with - base) / base);
    }
  }

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << benchutil::series_json(
      "stencil_kernels",
      "48^2 single-rank propagator throughput: four kernels through the "
      "interpreter and (when a C compiler exists) the JIT backend",
      rows, {{"edge", "48"}, {"jit_available", jit ? "true" : "false"}});
  return 0;
}
