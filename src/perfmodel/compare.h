// Measured-vs-predicted cross-validation (the feedback loop between the
// generated code and the analytical model).
//
// The tracing subsystem (src/obs) distills a run into a RunProfile;
// callers lift that into a MeasuredRun (adding what tracing cannot
// know: grid points, space order, kernel identity) and compare it
// against the alpha-beta + roofline ScalingModel. The comparison
// juxtaposes GPts/s, communication fraction, and per-pattern message
// counts/volume — message counts are checked against the exact Table I
// structural expectation for the run's topology, so a mismatch flags a
// runtime bug rather than a model error.
//
// Absolute predicted times come from the modeled machine (ARCHER2 /
// Tursa specs), not from the thread-backed test host, so the value of
// the report is in the *structure*: comm fractions, pattern ordering,
// and message accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfmodel/scaling.h"

namespace jitfd::obs {
struct RunProfile;
}

namespace jitfd::perf {

/// One traced run, distilled. `messages`/`halo_bytes` are totals across
/// all ranks over the whole run; `comm_fraction` is the mean over ranks
/// of comm / (comm + compute) busy time.
struct MeasuredRun {
  std::string kernel;  ///< Label for the report ("acoustic", ...).
  ir::MpiMode mode = ir::MpiMode::Basic;
  int ranks = 1;
  int so = 2;
  std::int64_t steps = 0;
  std::int64_t points_updated = 0;  ///< Global points x steps.
  double wall_seconds = 0.0;        ///< Slowest rank.
  double comm_fraction = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t halo_bytes = 0;
};

/// Lift an obs::RunProfile into a MeasuredRun; the step count is the
/// traced one (interpreter runs record one span per step).
MeasuredRun measured_from(const obs::RunProfile& profile,
                          const std::string& kernel, ir::MpiMode mode,
                          int so, std::int64_t points_updated);

/// Exact Table I structural message count for one exchange of one field
/// over a non-periodic process grid `topology`: face neighbours only
/// (basic, 2d per interior rank) or the full star neighbourhood
/// (diagonal/full, 3^d - 1 per interior rank), summed over all ranks.
std::uint64_t table1_messages(const std::vector<int>& topology,
                              ir::MpiMode mode);

/// One pattern's measured-vs-predicted row.
struct Comparison {
  MeasuredRun measured;
  double measured_gpts = 0.0;
  double predicted_gpts = 0.0;
  double measured_step_seconds = 0.0;
  double predicted_step_seconds = 0.0;
  double predicted_comm_fraction = 0.0;
  std::uint64_t expected_messages = 0;  ///< Table I x fields x spots x steps.
  double measured_bytes_per_step = 0.0;
  double predicted_bytes_per_step = 0.0;  ///< Model halo volume, all ranks.

  bool messages_match() const {
    return expected_messages == measured.messages;
  }
};

/// Compare one measured run against `model` evaluated on the same unit
/// count, order and pattern. `topology` is the run's process grid and
/// `global_shape` the global grid (for the structural halo-volume
/// estimate); `exchanges_per_step` is the number of (field, spot)
/// message rounds per time step (fields x per-step spots, 1 for a
/// single-field single-spot kernel); `domain_edge` feeds the model's
/// strong-scaling evaluation (0 = the paper's default cube).
Comparison compare_run(const MeasuredRun& measured, const ScalingModel& model,
                       const std::vector<int>& topology,
                       const std::vector<std::int64_t>& global_shape,
                       int exchanges_per_step = 1,
                       std::int64_t domain_edge = 0);

/// Human-readable table, one row per pattern.
std::string comparison_table(const std::vector<Comparison>& rows);

}  // namespace jitfd::perf
