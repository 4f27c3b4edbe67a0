// Numerical-health monitoring: the consumer side of the compiler-
// generated per-field reduction kernels (ir/lower emits HealthCheck IET
// nodes; codegen/emit and runtime/interpreter execute them and feed the
// per-rank local statistics here).
//
// A Monitor lives for one Operator::apply(). Every health step it
// receives, per checked field, the rank-local NaN/Inf counts, finite
// min/max and sum of squares over the owned interior (ghosts excluded),
// reduces them across ranks through the SMPI collectives — the check is
// guarded by `time % interval` identically on every rank, so the
// collectives stay in lockstep — and:
//   - appends a Sample to the run's Summary time-series,
//   - feeds the flight recorder's bounded health ring,
//   - applies the OnNan policy when NaN/Inf points appear.
//
// OnNan::AbortDump writes the flight-recorder bundle and throws
// DivergenceError on every rank (the reduced counts are identical
// everywhere, so no rank is left blocked in a collective); smpi::launch
// rethrows it on the caller thread, turning divergence into a nonzero
// process exit.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "smpi/comm.h"

namespace jitfd::obs::health {

/// Rank-local reduction results for one field at one health step, over
/// the owned interior only. min/max are over finite values (+/-inf of
/// the empty reduction when every point is NaN); l2sq is the local sum
/// of squares of finite values.
struct LocalStats {
  std::int64_t nan_count = 0;
  std::int64_t inf_count = 0;
  double min = 0.0;
  double max = 0.0;
  double l2sq = 0.0;
};

/// Backend-facing callbacks: the interpreter calls these directly; the
/// JIT path trampolines the generated kernel's ops->step / ops->health
/// function pointers into them.
class Sink {
 public:
  virtual ~Sink() = default;
  /// A time step is beginning on this rank.
  virtual void on_step(std::int64_t time) = 0;
  /// A generated health kernel reduced `field_id` at step `time`.
  virtual void on_check(int field_id, std::int64_t time,
                        const LocalStats& local) = 0;
};

/// What to do when a health check finds NaN/Inf points.
enum class OnNan {
  Ignore,     ///< Sample only; the run continues silently.
  Record,     ///< Mark the RunSummary with the first bad step and rank.
  AbortDump,  ///< Dump the flight bundle and throw DivergenceError.
};

const char* to_string(OnNan policy);
/// Parse "ignore" | "record" | "abort_dump" (throws std::invalid_argument).
OnNan on_nan_from_string(const std::string& name);

/// One globally-reduced health sample.
struct Sample {
  std::int64_t step = 0;
  int field_id = -1;
  std::string field;
  std::int64_t nan_count = 0;  ///< Global NaN points in the owned region.
  std::int64_t inf_count = 0;
  double min = 0.0;  ///< Global finite min (+inf when none finite).
  double max = 0.0;  ///< Global finite max (-inf when none finite).
  double l2 = 0.0;   ///< Global L2 norm of finite values.
  int first_bad_rank = -1;  ///< Lowest rank with NaN/Inf (-1 = clean).

  bool bad() const { return nan_count + inf_count > 0; }
};

/// Per-run health outcome, carried in core::RunSummary.
struct Summary {
  std::int64_t checks = 0;      ///< (field, step) checks performed.
  std::int64_t nan_points = 0;  ///< Global NaN points at the last check.
  std::int64_t inf_points = 0;
  std::int64_t first_bad_step = -1;  ///< -1 = the run stayed healthy.
  int first_bad_rank = -1;
  std::string first_bad_field;
  std::vector<Sample> series;

  bool healthy() const { return first_bad_step < 0; }
};

/// Thrown by OnNan::AbortDump (on every rank; smpi::launch rethrows the
/// lowest rank's copy after all ranks joined).
class DivergenceError : public std::runtime_error {
 public:
  DivergenceError(const std::string& what, std::int64_t step, int rank,
                  std::string field, std::string dump_path)
      : std::runtime_error(what),
        step_(step),
        rank_(rank),
        field_(std::move(field)),
        dump_path_(std::move(dump_path)) {}

  std::int64_t step() const { return step_; }
  /// Lowest rank with NaN/Inf points (globally agreed).
  int rank() const { return rank_; }
  const std::string& field() const { return field_; }
  /// Path of the flight-recorder bundle ("" when dumping was disabled).
  const std::string& dump_path() const { return dump_path_; }

 private:
  std::int64_t step_;
  int rank_;
  std::string field_;
  std::string dump_path_;
};

/// Per-rank, per-run monitor. Each rank thread owns one (SPMD); the
/// cross-rank reduction happens inside on_check.
class Monitor : public Sink {
 public:
  struct Options {
    OnNan on_nan = OnNan::Record;
    /// Communicator for cross-rank reductions; nullptr on serial grids
    /// (local statistics are then already global).
    const smpi::Communicator* comm = nullptr;
    int rank = 0;
    /// Resolves a field id to its name for samples and diagnostics.
    std::function<std::string(int)> field_name;
    /// Whether AbortDump writes the flight bundle (tests may disable).
    bool flight_dump = true;
  };

  explicit Monitor(Options opts);

  void on_step(std::int64_t time) override;
  void on_check(int field_id, std::int64_t time,
                const LocalStats& local) override;

  const Summary& summary() const { return summary_; }

 private:
  Options opts_;
  Summary summary_;
};

}  // namespace jitfd::obs::health
