// Automatic communication-pattern selection.
//
// The paper lists "an automated tuning system for selecting the
// best-performing MPI pattern without exploring all three options
// manually" as future work (Section IV-F). This implements it: trial
// time steps are executed with each candidate pattern on scratch copies
// of the field data, wall time is reduced across ranks (max — the
// slowest rank gates a synchronous step), and the fastest pattern wins.
// Field data is restored after every trial, so tuning is side-effect
// free and the user applies the returned operator as usual.
//
// Two scoring objectives exist (JITFD_AUTOTUNE_OBJECTIVE, or the
// explicit `objective` argument):
//  * wall — raw slowest-rank seconds, the historical behavior;
//  * attributed — each trial runs under tracing and is charged its
//    *attributed* cost: mean per-rank wait + the load-imbalance penalty
//    (max - mean compute). The winner is the trial whose time is spent
//    computing, not waiting — a config that merely hides a skewed load
//    behind overlap still pays its imbalance. Falls back to wall-clock
//    (recorded in `why`) when the tracing subsystem is compiled out
//    (-DJITFD_OBS=OFF).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/operator.h"

namespace jitfd::core {

/// Autotune scoring objective. FromEnv resolves through the
/// JITFD_AUTOTUNE_OBJECTIVE registry entry (default wall).
enum class Objective { FromEnv, Wall, Attributed };

/// Cross-rank analysis digest of one attributed trial: the same
/// quantities obs::analyze reports, allreduced so every rank holds the
/// identical score and the winner needs no extra agreement step.
struct AnalysisScore {
  double wait_s = 0.0;             ///< Total halo.wait seconds, all ranks.
  double overlap_efficiency = 0.0; ///< Hidden / window over async exchanges.
  double imbalance_ratio = 0.0;    ///< Max / mean compute seconds.
  int critical_rank = -1;          ///< Slowest rank of this trial.
  double imbalance_penalty_s = 0.0;  ///< max - mean compute seconds.
  /// wait_s / nranks + imbalance_penalty_s — the number attributed
  /// trials are ranked by.
  double attributed_cost_s = 0.0;
};

struct AutotuneReport {
  ir::MpiMode best = ir::MpiMode::Basic;
  /// Winning effective tile shape (empty = untiled won).
  std::vector<std::int64_t> best_tile;
  /// Measured seconds per pattern (slowest rank, best over trialled tile
  /// shapes).
  std::map<ir::MpiMode, double> seconds;
  /// One trial per (pattern, effective tile shape).
  using TrialKey = std::pair<ir::MpiMode, std::vector<std::int64_t>>;
  /// Full trial grid -> seconds. Trials whose tile request the compiler
  /// clamped (a tile not smaller than the local extent, ...) duplicate an
  /// already-measured point and are recorded in `skipped` instead.
  std::map<TrialKey, double> seconds_by_trial;
  /// Requested-but-not-run trials -> the compiler's clamp reason.
  std::map<TrialKey, std::string> skipped;
  int trial_steps = 0;

  /// Resolved scoring objective (never FromEnv; Attributed only when
  /// scores were actually collected).
  Objective objective = Objective::Wall;
  /// Per-trial analysis scores (attributed objective only; keyed like
  /// seconds_by_trial).
  std::map<TrialKey, AnalysisScore> scores;
  /// Decision trail: which candidate won and the decisive cost term.
  /// Non-empty after every tuning run (including serial no-op runs).
  std::string why;
  /// Attributed runs flag a persistent imbalance: every scored trial
  /// saw imbalance_ratio >= rebalance_threshold with one stable
  /// critical rank. Feed Grid::plan_rebalance next.
  bool rebalance_recommended = false;
  int rebalance_rank = -1;           ///< The stable critical rank.
  double rebalance_threshold = 0.0;  ///< JITFD_REBALANCE_THRESHOLD used.
};

/// Decision kernel for the attributed objective, pure so tests can feed
/// synthetic scores: picks the minimum attributed_cost_s (ties resolve
/// to the first key in map order) and names the decisive term — the
/// cost component with the largest gap to the runner-up.
struct AttributedChoice {
  AutotuneReport::TrialKey best;
  std::string why;
};
AttributedChoice choose_attributed(
    const std::map<AutotuneReport::TrialKey, AnalysisScore>& scores,
    int nranks);

/// Stable machine-readable export of a report: one top-level "autotune"
/// object with objective / why / best / rebalance / trials / skipped
/// (validated against obs::autotune_schema() by tools/trace_check).
std::string autotune_report_json(const AutotuneReport& report);
bool write_autotune_file(const std::string& path,
                         const AutotuneReport& report);

/// Build an Operator for `eqs` with the fastest communication pattern and
/// cache-tile shape.
///
/// `opts.mode` and `opts.tile` are ignored; every pattern in {Basic,
/// Diagonal, Full} is trialled jointly with a small set of tile-shape
/// candidates (untiled plus outer-dimension blocks sized from the
/// fields' per-row cache footprint) for `trial_steps` steps each (using
/// `scalars` for the symbol bindings, starting at time step `time_m`). On
/// serial grids no trials run and the mode stays None. The chosen
/// operator is returned fresh (trial side effects on field data are
/// rolled back).
///
/// Attributed runs reset the trace registry around every trial, so any
/// events recorded before tuning are gone afterwards — tune first,
/// trace later.
std::unique_ptr<Operator> autotune_operator(
    const std::vector<ir::Eq>& eqs, ir::CompileOptions opts,
    const std::map<std::string, double>& scalars, std::int64_t time_m = 0,
    int trial_steps = 3, AutotuneReport* report = nullptr,
    std::vector<runtime::SparseOp*> sparse_ops = {},
    Objective objective = Objective::FromEnv);

}  // namespace jitfd::core
