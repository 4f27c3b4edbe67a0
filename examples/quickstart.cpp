// Quickstart: the paper's Listing 1, in the C++ DSL.
//
// A heat-diffusion operator on a 4x4 grid: define the grid and a
// time-varying function, write the PDE symbolically, solve for the
// update, build the Operator, and apply it. Run with an argument to see
// the same program executed on that many MPI ranks (threads by default,
// forked processes with --transport=process_shm) with the distributed
// NumPy-style data access of Listings 2-3 — the source below does not
// change.
//
//   ./quickstart                        # serial
//   ./quickstart 4                      # 4 ranks, basic halo pattern
//   ./quickstart 4 --transport=process_shm
//                                       # ranks as forked processes over
//                                       # shared-memory rings (default:
//                                       # threads, or JITFD_TRANSPORT)
//   ./quickstart --env                  # list every JITFD_* variable
//                                       # with type, default, live value
//   ./quickstart 4 --trace=trace.json   # + per-rank trace: summary on
//                                       # stdout, Chrome JSON to the file
//                                       # (open in chrome://tracing or
//                                       # https://ui.perfetto.dev)
//   ... --analysis=analysis.json        # + cross-rank analysis report
//                                       # (wait-state attribution,
//                                       # imbalance; needs --trace=)
//   ... --health[=N]                    # + generated NaN/Inf/min/max/L2
//                                       # checks every N steps (default 1)
//   ... --on-nan=abort_dump             # on NaN/Inf: write the flight-
//                                       # recorder bundle and exit nonzero
//                                       # (also: ignore | record)
//   ./quickstart 4 --autotune=at.json   # trial every halo pattern x
//                                       # tile, apply the one whose
//                                       # slowest rank ran fastest, write
//                                       # the report (with the "why"
//                                       # decision trail) to the file
//
// RANKS and N are whole non-negative decimals and FILE must not be
// empty; --analysis= needs --trace=, and --autotune= takes neither
// --trace= nor --health. Anything else, including an unknown MODE or
// KIND and any unknown --flag, prints why and exits 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/autotune.h"
#include "core/env.h"
#include "core/operator.h"
#include "grid/function.h"
#include "obs/analysis.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/report.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

namespace {

struct HealthArgs {
  std::int64_t interval = 0;
  obs::health::OnNan on_nan = obs::health::OnNan::Record;
};

jitfd::core::RunSummary simulate(const Grid& grid, int rank, bool trace,
                                 const HealthArgs& health) {
  // Variable declarations (Listing 1, lines 2-8).
  const double nu = 0.5;
  const double sigma = 0.25;
  const double dx = grid.spacing(0);
  const double dy = grid.spacing(1);
  const double dt = sigma * dx * dy / nu;

  // A TimeFunction encapsulating space- and time-varying data
  // (space_order=2, first order in time).
  TimeFunction u("u", grid, /*space_order=*/2, /*time_order=*/1);

  // u.data[1:-1, 1:-1] = 1 — a *global* slice; each rank writes only the
  // part it owns (Listing 2).
  u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                    std::vector<std::int64_t>{3, 3}, 1.0F);

  // The equation to be solved: Eq(u.dt, nu * u.laplace), rearranged for
  // u.forward by solve().
  const sym::Ex pde = u.dt() - nu * u.laplace();
  const ir::Eq stencil(u.forward(), sym::solve(pde, sym::Ex(0), u.forward()));

  // Generate the operator (the compiler runs here: clustering, flop
  // reduction, halo detection, pattern lowering) and apply one step.
  Operator op({stencil});
  const jitfd::core::RunSummary run =
      op.apply({.time_m = 0,
                .time_M = 0,
                .scalars = {{"dt", dt}},
                .trace = trace,
                .health_interval = health.interval,
                .on_nan = health.on_nan});

  // Inspect the result as one logical array (gathered on rank 0).
  const std::vector<float> data = u.gather(1);
  if (rank == 0) {
    std::printf("u after one step (dt = %.4f):\n", dt);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        std::printf(" %6.3f", data[static_cast<std::size_t>(4 * i + j)]);
      }
      std::printf("\n");
    }
    std::printf("\ngenerated C (excerpt):\n");
    const std::string& code = op.ccode();
    // Print the kernel body only (skip the boilerplate header).
    const auto pos = code.find("for (long time");
    std::printf("%.600s...\n", code.c_str() + (pos == std::string::npos
                                                   ? 0
                                                   : pos));
  }
  return run;
}

// --autotune=FILE: tune the diffusion operator over pattern x tile,
// apply one step with the winner, and write the machine-readable report
// (tools/trace_check --autotune validates it).
int run_autotune(int nranks, smpi::LaunchOptions launch_opts,
                 const std::string& path) {
  constexpr std::int64_t kEdge = 16;
  int status = 0;
  const auto tune = [&](const Grid& grid, smpi::Communicator* comm) {
    const double nu = 0.5;
    const double dt = 0.25 * grid.spacing(0) * grid.spacing(1) / nu;
    TimeFunction u("u", grid, /*space_order=*/2, /*time_order=*/1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{kEdge - 1, kEdge - 1}, 1.0F);
    const sym::Ex pde = u.dt() - nu * u.laplace();
    const ir::Eq stencil(u.forward(),
                         sym::solve(pde, sym::Ex(0), u.forward()));
    jitfd::core::AutotuneReport report;
    const auto op = jitfd::core::autotune_operator(
        {stencil}, {}, {{"dt", dt}}, /*time_m=*/0, /*trial_steps=*/3,
        &report);
    op->apply({.time_m = 0, .time_M = 0, .scalars = {{"dt", dt}}});
    if (comm == nullptr || comm->rank() == 0) {
      std::printf("autotune: chose %s\n", ir::to_string(report.best));
      std::printf("  why: %s\n", report.why.c_str());
      if (jitfd::core::write_autotune_file(path, report)) {
        std::printf("autotune report written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        status = 1;
      }
    }
  };
  if (nranks > 1) {
    launch_opts.nranks = nranks;
    smpi::launch(launch_opts, [&](smpi::Communicator& comm) {
      const Grid grid({kEdge, kEdge}, {2.0, 2.0}, comm);
      tune(grid, &comm);
    });
  } else {
    const Grid grid({kEdge, kEdge}, {2.0, 2.0});
    tune(grid, nullptr);
  }
  return status;
}

int usage() {
  std::fprintf(stderr,
               "usage: quickstart [RANKS] [--transport=KIND] [--trace=FILE] "
               "[--analysis=FILE] [--health[=N]] [--on-nan=MODE] "
               "[--autotune=FILE] [--env]\n");
  return 2;
}

/// Parses `text` into `out` as a whole non-negative decimal that fits
/// `T`; prints why and returns false otherwise.
template <typename T>
bool parse_count(const char* what, const char* text, T& out) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < 0) {
    std::fprintf(stderr, "quickstart: malformed %s '%s'\n", what, text);
    return false;
  }
  out = v;
  return true;
}

/// Takes the FILE of a `--flag=FILE` argument; an empty FILE prints why
/// and returns false.
bool parse_path(const char* flag, const char* text, std::string& out) {
  if (*text == '\0') {
    std::fprintf(stderr, "quickstart: %s needs a FILE\n", flag);
    return false;
  }
  out = text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 0;
  std::string trace_path;
  std::string analysis_path;
  std::string autotune_path;
  smpi::LaunchOptions launch_opts;
  HealthArgs health;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      if (!parse_path("--trace", argv[i] + 8, trace_path)) {
        return usage();
      }
    } else if (std::strncmp(argv[i], "--analysis=", 11) == 0) {
      if (!parse_path("--analysis", argv[i] + 11, analysis_path)) {
        return usage();
      }
    } else if (std::strncmp(argv[i], "--autotune=", 11) == 0) {
      if (!parse_path("--autotune", argv[i] + 11, autotune_path)) {
        return usage();
      }
    } else if (std::strcmp(argv[i], "--env") == 0) {
      std::printf("%s", jitfd::env::describe().c_str());
      return 0;
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      try {
        launch_opts.transport = smpi::transport_from_string(argv[i] + 12);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health.interval = 1;
    } else if (std::strncmp(argv[i], "--health=", 9) == 0) {
      if (!parse_count("--health", argv[i] + 9, health.interval)) {
        return usage();
      }
    } else if (std::strncmp(argv[i], "--on-nan=", 9) == 0) {
      try {
        health.on_nan = obs::health::on_nan_from_string(argv[i] + 9);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "quickstart: --on-nan: %s\n", e.what());
        return usage();
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return usage();
    } else if (!parse_count("rank count", argv[i], nranks)) {
      return usage();
    }
  }
  if (!analysis_path.empty() && trace_path.empty()) {
    std::fprintf(stderr, "quickstart: --analysis needs --trace=FILE\n");
    return usage();
  }
  if (!autotune_path.empty() &&
      (!trace_path.empty() || health.interval > 0)) {
    std::fprintf(stderr,
                 "quickstart: --autotune runs no traced or health-checked "
                 "simulation; drop --trace= and --health\n");
    return usage();
  }
  if (!autotune_path.empty()) {
    return run_autotune(nranks, launch_opts, autotune_path);
  }
  const bool trace = !trace_path.empty();
  // Post-mortem bundles for fatal signals / uncaught exceptions too,
  // not just NaN detection under --on-nan=abort_dump.
  obs::flight::install_crash_handlers();

  jitfd::core::RunSummary run;
  try {
    if (nranks > 1) {
      launch_opts.nranks = nranks;
      const smpi::TransportKind kind = launch_opts.transport.has_value()
                                           ? *launch_opts.transport
                                           : smpi::default_transport();
      std::printf("running on %d MPI ranks (%s transport)\n", nranks,
                  smpi::to_string(kind));
      smpi::launch(launch_opts, [&](smpi::Communicator& comm) {
        const Grid grid({4, 4}, {2.0, 2.0}, comm);
        const auto r = simulate(grid, comm.rank(), trace, health);
        if (comm.rank() == 0) {
          run = r;
        }
      });
    } else {
      const Grid grid({4, 4}, {2.0, 2.0});
      run = simulate(grid, 0, trace, health);
    }
  } catch (const obs::health::DivergenceError& e) {
    std::fprintf(stderr, "diverged: %s\n", e.what());
    if (!e.dump_path().empty()) {
      std::fprintf(stderr, "flight bundle: %s\n", e.dump_path().c_str());
    }
    return 3;
  }

  if (health.interval > 0) {
    std::printf("\nhealth: %lld checks, %lld NaN / %lld Inf points (%s)\n",
                static_cast<long long>(run.health.checks),
                static_cast<long long>(run.health.nan_points),
                static_cast<long long>(run.health.inf_points),
                run.health.healthy() ? "healthy" : "diverged");
  }
  std::printf("\n%lld point-updates in %.3f ms (%s backend, %llu halo "
              "messages)\n",
              static_cast<long long>(run.points_updated),
              1e3 * run.seconds, jitfd::core::to_string(run.backend),
              static_cast<unsigned long long>(run.halo.messages));
  // Every rank has finished (smpi::launch returned; child traces are
  // merged under process_shm), so the trace snapshot is complete here.
  if (run.trace.active()) {
    std::printf("\n%s", run.trace.summary().c_str());
    if (run.trace.write_chrome(trace_path)) {
      std::printf("chrome trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    if (!analysis_path.empty()) {
      std::ofstream out(analysis_path, std::ios::binary);
      out << obs::analysis_json(run.trace.analysis());
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", analysis_path.c_str());
        return 1;
      }
      std::printf("cross-rank analysis written to %s\n",
                  analysis_path.c_str());
    }
  }
  return 0;
}
