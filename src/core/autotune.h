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
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/operator.h"

namespace jitfd::core {

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

  /// Decision trail: which candidate won and its time. Non-empty after
  /// every tuning run (including serial no-op runs).
  std::string why;
};

/// Stable machine-readable export of a report: one top-level "autotune"
/// object with why / trial_steps / best / trials / skipped (validated
/// against obs::autotune_schema() by tools/trace_check).
std::string autotune_report_json(const AutotuneReport& report);
bool write_autotune_file(const std::string& path,
                         const AutotuneReport& report);

/// Tile-shape candidates of autotune_operator for the fields of an
/// operator: untiled, plus outer-dimension blocks sized so one block's
/// working set (block rows x the per-row footprint of every buffer of
/// every field on all grid dimensions) fits a nominal last-level-cache
/// share, plus a halved variant. Candidates not strictly smaller than
/// half the minimum rank-local extent are capped there, and any below 2
/// dropped: the lowering pass would clamp them to untiled anyway,
/// duplicating the untiled trial.
std::vector<std::vector<std::int64_t>> tile_candidates(
    const std::vector<grid::Function*>& fields, const grid::Grid& grid);

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
std::unique_ptr<Operator> autotune_operator(
    const std::vector<ir::Eq>& eqs, ir::CompileOptions opts,
    const std::map<std::string, double>& scalars, std::int64_t time_m = 0,
    int trial_steps = 3, AutotuneReport* report = nullptr,
    std::vector<runtime::SparseOp*> sparse_ops = {});

}  // namespace jitfd::core
