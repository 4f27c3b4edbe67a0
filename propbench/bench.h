// Propagator benchmark: shared declarations of the propbench binary.
//
// The binary runs one named workload of the four-propagator stack through
// the JIT backend, in one of four modes, and prints one JSON object
// (the last line of stdout) that run.py aggregates:
//   reference — run one episode on a serial grid (a reduced one for the
//            shot), check its first steps against the IET interpreter and
//            write the result to --reference; never measured;
//   setup  — set the workload up (launch, grid, lowering, cold compile)
//            and stop: one setup_s sample;
//   run    — set up, then step for --seconds with every trace off and
//            check each episode against the reference file (end-to-end
//            metrics);
//   trace  — the same stepping, split into layers by timing the calls
//            into each layer's public functions from this benchmark's
//            own code (per-layer metrics), plus local ceilings.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/operator.h"
#include "models/common.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

namespace propbench {

/// Space order of every workload; the stencil radius is half of it.
constexpr int kSpaceOrder = 8;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The fixed shape of one named workload; only Inputs vary with the seed.
struct Workload {
  std::string name;
  int ranks = 1;
  int threads = 1;  ///< OpenMP threads per rank (OMP_NUM_THREADS).
  smpi::TransportKind transport = smpi::TransportKind::Threads;
  std::int64_t edge = 0;  ///< Global grid points per dimension (3-D cube).
  bool elastic = false;   ///< Elastic model; acoustic otherwise.
  jitfd::ir::MpiMode mode = jitfd::ir::MpiMode::None;
  int nbl = 0;               ///< Absorbing-layer width in points.
  int episode_steps = 0;     ///< Steps of one propagation from the inputs.
  /// Steps per timed apply() call: an episode has at least 100 chunks, so
  /// at least 10 lie beyond its p90.
  int chunk_steps = 1;
  int health_interval = 0;   ///< Health checks every N steps (0 = off).
  bool shot = false;  ///< Zero start + Ricker source + receiver line.
};

/// Looks a workload up by name; throws std::invalid_argument if unknown.
const Workload& find_workload(const std::string& name);

/// Inputs generated from the seed by run.py (the program never sees the
/// seed itself).
struct Inputs {
  std::vector<double> src;        ///< Shot: source position (grid units).
  std::vector<double> rec;        ///< Shot: receiver line x, y0, z, dy.
  std::vector<std::int64_t> box;  ///< Perturbation box lo0..2, hi0..2.
  double amplitude = 0.0;         ///< Perturbation amplitude.
  double background = 0.0;        ///< Wavefield value outside the box.
};

/// A forwarding sparse operation: lets a run swap the receiver record
/// between episodes and, in the traced run, times Injection and
/// Interpolation::apply.
class SparseSlot : public jitfd::runtime::SparseOp {
 public:
  std::unique_ptr<jitfd::runtime::SparseOp> op;
  double* timer = nullptr;  ///< Accumulates apply() seconds when set.
  void apply(std::int64_t time) override;
};

/// One workload problem on this rank: grid, model, sparse operations and
/// the lowered operator. Construction is the timed set-up work.
class Problem {
 public:
  /// `comm` is null for a serial grid. `edge_override` > 0 builds the
  /// shot's reduced reference grid instead of the workload's own.
  Problem(const Workload& wl, const Inputs& in, smpi::Communicator* comm,
          std::int64_t edge_override = 0);

  const Workload& wl;
  const Inputs& in;
  std::unique_ptr<jitfd::grid::Grid> grid;
  std::unique_ptr<jitfd::models::WaveModel> model;
  std::unique_ptr<jitfd::sparse::SparseFunction> src_points;
  std::unique_ptr<jitfd::sparse::SparseFunction> rec_points;
  SparseSlot inject;
  SparseSlot record;
  std::vector<jitfd::runtime::SparseOp*> sparse_ops;  ///< Handed to op.
  std::unique_ptr<jitfd::core::Operator> op;
  std::map<std::string, double> scalars;  ///< dt and model constants.
  double grid_init_s = 0.0;  ///< Grid, model, inputs and sparse set-up.
  double lower_s = 0.0;      ///< Operator construction (lowering).

  /// The wavefield components compared against the reference.
  std::vector<jitfd::grid::TimeFunction*> wavefield();
  /// Restore the episode's initial state (and a fresh receiver record).
  void reset();
  /// ApplyArgs for steps [time_m, time_M] of an episode.
  jitfd::core::ApplyArgs args(std::int64_t time_m, std::int64_t time_M,
                              bool trace = false) const;
};

/// Peak resident set of this process in MiB.
double peak_rss_mib();

// --- Probes (probes.cpp) ---------------------------------------------

/// STREAM triad a = b + s*c over double arrays each `bytes` large, with
/// `threads` OpenMP threads; best of several passes, in GB/s.
double triad_gbs(std::size_t bytes, int threads);

struct SmpiProbe {
  double latency_us = 0.0;
  double bw_gbs = 0.0;
  double barrier_us = 0.0;
  double allreduce_us = 0.0;
};
/// Ping-pong (8 bytes and `face_bytes`), barrier and allreduce on a fresh
/// launch of max(2, wl.ranks) ranks over the workload's transport.
SmpiProbe smpi_probe(const Workload& wl, std::size_t face_bytes);

/// pack_box/unpack_box of the three high faces (stencil-radius deep) of
/// `fn`; returns bytes moved and seconds spent by each.
void pack_probe(jitfd::grid::Function& fn, int radius, double& bytes,
                double& pack_s, double& unpack_s);

// --- Modes --------------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  double seconds = 10.0;
  std::size_t llc_bytes = 0;  ///< Last-level cache size (sizes the triad).
  /// Reference file: written by mode reference, read by run and trace.
  std::string reference;
  Inputs in;
  bool corrupt = false;
};

/// What a run's episodes did. Every rank holds the same counts.
struct Episodes {
  std::vector<double> walls;  ///< Stepping wall of each episode.
  std::int64_t attempted = 0;  ///< Chunks, checks and the property check.
  std::int64_t failed = 0;
  double max_err = 0.0;  ///< Largest reference-check error.
  double subnormal_share = 0.0;  ///< Of the wavefield, after the last one.
};

/// Steps episodes from the inputs, each checked against o.reference (the
/// same problem on a serial grid, a reduced grid for the shot), until
/// another would end further from o.seconds than stopping now; then
/// checks that the wavefield has subnormals exactly when the workload
/// starts from zero. `chunk` steps [time_m, time_M] and returns false
/// when unhealthy. `o.corrupt` perturbs one value before the first check
/// (the must-fail self-test). Collective.
Episodes run_episodes(
    smpi::Communicator& comm, Problem& p, const Options& o,
    const std::function<bool(std::int64_t, std::int64_t)>& chunk);

/// Minimal JSON object writer for the result line.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& list(const std::string& key, const std::vector<double>& v);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string run_reference(const Options& o);     // mode reference
std::string run_setup_or_run(const Options& o);  // modes setup and run
std::string run_trace(const Options& o);         // mode trace

}  // namespace propbench
