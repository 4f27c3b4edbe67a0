// propbench: one workload of the propagator benchmark, in one mode.
//
//   propbench --mode reference|setup|run|trace --workload NAME --seconds S
//             [--src x,y,z --rec x,y0,z,dy] [--box lo0,lo1,lo2,hi0,hi1,hi2
//             --amplitude A --background B] [--reference FILE]
//             [--llc-bytes N] [--corrupt]
//
// Prints one JSON object as the last line of stdout. run.py generates the
// inputs from a seed, runs the modes and aggregates the metrics.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace propbench {

void Json::key(const std::string& k) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += "\"" + k + "\": ";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

Json& Json::list(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
    body_ += buf;
  }
  body_ += "]";
  return *this;
}

std::string run_setup_or_run(const Options& o) {
  const Workload& wl = find_workload(o.workload);
  const bool setup_only = o.mode == "setup";
  // Written by rank 0 only (the calling thread / parent process).
  double setup_s = 0.0;
  double buffer_mib = 0.0;  ///< One wavefield time buffer, ghosts included.
  double rss_mib = 0.0;
  Episodes episodes;
  std::vector<double> chunk_ms;

  const double t0 = now_s();
  smpi::launch({.nranks = wl.ranks, .transport = wl.transport},
               [&](smpi::Communicator& comm) {
    const int rank = comm.rank();
    Problem p(wl, o.in, &comm);
    p.op->apply(p.args(1, 0));  // Loads the kernel; steps nothing.
    comm.barrier();
    if (rank == 0) {
      setup_s = now_s() - t0;
      buffer_mib = static_cast<double>(p.wavefield().front()->buffer_points()) *
                   sizeof(float) / (1 << 20);
    }
    if (!setup_only) {
      Episodes ep = run_episodes(
          comm, p, o, [&](std::int64_t tm, std::int64_t tM) {
            const double c0 = now_s();
            const jitfd::core::RunSummary run = p.op->apply(p.args(tm, tM));
            if (rank == 0) {
              chunk_ms.push_back((now_s() - c0) * 1e3 /
                                 static_cast<double>(tM - tm + 1));
            }
            return run.health.healthy();
          });
      if (rank == 0) {
        episodes = std::move(ep);
      }
    }
    // Rank threads share one process; forked ranks each have their own.
    const double mine =
        rank == 0 || wl.transport == smpi::TransportKind::ProcessShm
            ? peak_rss_mib()
            : 0.0;
    std::vector<double> all(static_cast<std::size_t>(comm.size()));
    comm.gather(&mine, sizeof(mine), all.data(), 0);
    if (rank == 0) {
      for (const double v : all) {
        rss_mib += v;
      }
    }
  });

  Json j;
  j.num("setup_s", setup_s)
      .num("buffer_mib", buffer_mib)
      .num("peak_rss_mib", rss_mib);
  if (!setup_only) {
    j.num("points", static_cast<double>(wl.edge * wl.edge * wl.edge))
        .num("episode_steps", wl.episode_steps)
        .num("chunk_steps", wl.chunk_steps)
        .num("attempted", static_cast<double>(episodes.attempted))
        .num("failed", static_cast<double>(episodes.failed))
        .num("max_err", episodes.max_err)
        .num("subnormal_share", episodes.subnormal_share)
        .list("episode_s", episodes.walls)
        .list("chunk_ms", chunk_ms);
  }
  return j.done();
}

namespace {

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t used = 0;
    out.push_back(std::stod(item, &used));
    if (used != item.size()) {
      throw std::invalid_argument("bad number '" + item + "'");
    }
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + a);
    }
    const std::string v = argv[++i];
    if (a == "--mode") {
      o.mode = v;
    } else if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--reference") {
      o.reference = v;
    } else if (a == "--llc-bytes") {
      o.llc_bytes = static_cast<std::size_t>(std::stod(v));
    } else if (a == "--src") {
      o.in.src = parse_list(v);
    } else if (a == "--rec") {
      o.in.rec = parse_list(v);
    } else if (a == "--box") {
      for (const double x : parse_list(v)) {
        o.in.box.push_back(static_cast<std::int64_t>(x));
      }
    } else if (a == "--amplitude") {
      o.in.amplitude = std::stod(v);
    } else if (a == "--background") {
      o.in.background = std::stod(v);
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.mode != "reference" && o.mode != "setup" && o.mode != "run" &&
      o.mode != "trace") {
    throw std::invalid_argument("--mode must be reference, setup, run or trace");
  }
  if (o.mode != "setup" && o.reference.empty()) {
    throw std::invalid_argument("--mode " + o.mode + " needs --reference");
  }
  // The thread count is part of the workload: refuse a mismatched pin.
  const Workload& wl = find_workload(o.workload);
  if (omp_get_max_threads() != wl.threads) {
    throw std::invalid_argument("workload " + wl.name + " needs " +
                                std::to_string(wl.threads) +
                                " OpenMP threads per rank (OMP_NUM_THREADS)");
  }
  if (o.mode == "trace" && o.llc_bytes == 0) {
    throw std::invalid_argument("--mode trace needs --llc-bytes");
  }
  return o;
}

}  // namespace

}  // namespace propbench

int main(int argc, char** argv) {
  try {
    const propbench::Options o = propbench::parse(argc, argv);
    std::cout << (o.mode == "reference" ? propbench::run_reference(o)
                  : o.mode == "trace"   ? propbench::run_trace(o)
                                        : propbench::run_setup_or_run(o))
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "propbench: " << e.what() << std::endl;
    return 1;
  }
}
