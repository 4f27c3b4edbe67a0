// Tests for the communication-pattern autotuner (the paper's Section
// IV-F future-work item): trial side effects must be rolled back, the
// choice must be one of the three patterns, and the tuned operator must
// produce results identical to the serial reference. The attributed
// objective adds a pure decision kernel (choose_attributed on synthetic
// scores), env-driven objective resolution, and a constructed-imbalance
// run that must pin the delayed rank in every trial's score and
// recommend a rebalance.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/autotune.h"
#include "grid/function.h"
#include "obs/json_check.h"
#include "obs/trace.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::AnalysisScore;
using jitfd::core::autotune_operator;
using jitfd::core::AttributedChoice;
using jitfd::core::AutotuneReport;
using jitfd::core::choose_attributed;
using jitfd::core::Objective;
using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

bool obs_built() {
  obs::set_enabled(true);
  const bool on = obs::enabled();
  obs::set_enabled(false);
  return on;
}

// setenv/unsetenv wrapper that restores on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

ir::Eq diffusion_eq(const TimeFunction& u) {
  return ir::Eq(u.forward(),
                sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()));
}

TEST(Autotune, SerialGridSkipsTrialsAndUsesNoComm) {
  const Grid g({8, 8}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  AutotuneReport report;
  auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                              &report);
  EXPECT_EQ(op->options().mode, ir::MpiMode::None);
  EXPECT_TRUE(report.seconds.empty());
  // The decision trail is never empty, even without trials.
  EXPECT_NE(report.why.find("serial"), std::string::npos) << report.why;
  op->apply({.time_m = 0, .time_M = 0, .scalars = {{"dt", 1e-3}}});
}

TEST(Autotune, TrialsAllPatternsAndRestoresData) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    const std::vector<float> before(u.raw_storage().begin(),
                                    u.raw_storage().end());
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    // All three patterns were measured.
    ASSERT_EQ(report.seconds.size(), 3U);
    EXPECT_EQ(report.trial_steps, 2);
    EXPECT_GT(report.seconds.at(ir::MpiMode::Basic), 0.0);
    EXPECT_TRUE(op->options().mode == ir::MpiMode::Basic ||
                op->options().mode == ir::MpiMode::Diagonal ||
                op->options().mode == ir::MpiMode::Full);
    // The winner is the pattern with the smallest measured time.
    for (const auto& [mode, secs] : report.seconds) {
      EXPECT_GE(secs, report.seconds.at(op->options().mode));
    }
    // The full grid ran 6 trials: {basic, diagonal, full} x {untiled,
    // {4, 0}} — nothing clamped here (the 16x16 grid over a 2x2 topology
    // admits a 4-row outer tile) — and the per-pattern summary is the
    // best over tiles.
    EXPECT_EQ(report.seconds_by_trial.size(), 6U);
    EXPECT_TRUE(report.skipped.empty());
    for (const auto& [key, secs] : report.seconds_by_trial) {
      EXPECT_GT(secs, 0.0);
      EXPECT_LE(report.seconds.at(key.first), secs);
    }
    // The winner carries both the pattern and the tile into the returned
    // operator (an untiled win, key [], as an explicit all-zero tile).
    const std::vector<std::int64_t> untiled{0, 0};
    EXPECT_EQ(op->options().mode, report.best);
    EXPECT_EQ(op->options().tile,
              report.best_tile.empty() ? untiled : report.best_tile);
    EXPECT_EQ(report.seconds_by_trial.at({report.best, report.best_tile}),
              report.seconds.at(report.best));
    // Trial side effects were rolled back.
    const std::vector<float> after(u.raw_storage().begin(),
                                   u.raw_storage().end());
    EXPECT_EQ(before, after);
    // Every rank agrees on the winner (timings were max-reduced).
    std::vector<std::int64_t> mode_id{static_cast<int>(op->options().mode)};
    std::vector<std::int64_t> mode_max = mode_id;
    comm.allreduce(std::span<std::int64_t>(mode_max), smpi::ReduceOp::Max);
    EXPECT_EQ(mode_id[0], mode_max[0]);
  });
}

TEST(Autotune, UntiledTrialIgnoresTheTileDefault) {
  // JITFD_TILE fills in only a tile the caller leaves empty: the untiled
  // candidate must still run untiled, beside its own [4, 0] trial.
  const ScopedEnv tile("JITFD_TILE", "4,0");
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    for (const ir::MpiMode mode :
         {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
      EXPECT_EQ(report.seconds_by_trial.count({mode, {}}), 1U)
          << ir::to_string(mode);
      EXPECT_EQ(report.seconds_by_trial.count({mode, {4, 0}}), 1U)
          << ir::to_string(mode);
    }
    EXPECT_TRUE(report.skipped.empty());
    // The returned operator runs the winner's tile, untiled included.
    const std::vector<std::int64_t> untiled{0, 0};
    EXPECT_EQ(op->info().tile,
              report.best_tile.empty() ? untiled : report.best_tile);
  });
}

// ---------------------------------------------------------------------
// Attributed objective: pure decision kernel on synthetic scores.
// ---------------------------------------------------------------------

AnalysisScore score(double wait, double penalty, int nranks,
                    double ratio = 1.0, int critical = -1) {
  AnalysisScore s;
  s.wait_s = wait;
  s.imbalance_penalty_s = penalty;
  s.imbalance_ratio = ratio;
  s.critical_rank = critical;
  s.attributed_cost_s = wait / nranks + penalty;
  return s;
}

AutotuneReport::TrialKey key(ir::MpiMode mode) { return {mode, {}}; }

TEST(Autotune, ChooseAttributedPicksMinCostAndNamesDecisiveTerm) {
  std::map<AutotuneReport::TrialKey, AnalysisScore> scores;
  // Basic waits hard; full hides the exchange: full must win on wait.
  scores[key(ir::MpiMode::Basic)] = score(0.40, 0.0, 4);
  scores[key(ir::MpiMode::Full)] = score(0.04, 0.0, 4);
  const AttributedChoice choice = choose_attributed(scores, 4);
  EXPECT_EQ(choice.best.first, ir::MpiMode::Full);
  EXPECT_NE(choice.why.find("full"), std::string::npos) << choice.why;
  EXPECT_NE(choice.why.find("wait"), std::string::npos) << choice.why;
}

TEST(Autotune, ChooseAttributedChargesHiddenImbalance) {
  // The overlap-vs-wall blind spot the attributed objective exists for:
  // "full" has the lower wall-style wait (it hides comm under compute)
  // but only because one rank is overloaded — its imbalance penalty
  // makes it the worse choice, and the why names the penalty.
  std::map<AutotuneReport::TrialKey, AnalysisScore> scores;
  scores[key(ir::MpiMode::Full)] = score(0.01, 0.20, 4, 3.0, 2);
  scores[key(ir::MpiMode::Basic)] = score(0.10, 0.01, 4, 1.1, -1);
  const AttributedChoice choice = choose_attributed(scores, 4);
  EXPECT_EQ(choice.best.first, ir::MpiMode::Basic);
  EXPECT_NE(choice.why.find("imbalance penalty"), std::string::npos)
      << choice.why;

  // Empty and single-candidate inputs still explain themselves.
  EXPECT_FALSE(choose_attributed({}, 4).why.empty());
  std::map<AutotuneReport::TrialKey, AnalysisScore> one;
  one[key(ir::MpiMode::Diagonal)] = score(0.1, 0.0, 4);
  const AttributedChoice only = choose_attributed(one, 4);
  EXPECT_EQ(only.best.first, ir::MpiMode::Diagonal);
  EXPECT_NE(only.why.find("only scored candidate"), std::string::npos)
      << only.why;
}

// ---------------------------------------------------------------------
// Attributed objective on real runs.
// ---------------------------------------------------------------------

TEST(Autotune, ObjectiveResolvesFromEnvRegistry) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  // JITFD_AUTOTUNE_OBJECTIVE drives the default (FromEnv) resolution;
  // the report records which objective actually scored the trials.
  ScopedEnv objective("JITFD_AUTOTUNE_OBJECTIVE", "attributed");
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    EXPECT_EQ(report.objective, Objective::Attributed);
    EXPECT_FALSE(report.scores.empty());
    (void)op;
  });
}

TEST(Autotune, AttributedRunScoresEveryTrialAndExportsValidJson) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report, {}, Objective::Attributed);
    EXPECT_EQ(report.objective, Objective::Attributed);
    // Every measured trial carries a score; the trial set is unchanged
    // from the wall objective (6 trials, no skips — the objective must
    // never change WHICH trials run).
    EXPECT_EQ(report.seconds_by_trial.size(), 6U);
    EXPECT_TRUE(report.skipped.empty());
    EXPECT_EQ(report.scores.size(), report.seconds_by_trial.size());
    for (const auto& [k, sc] : report.scores) {
      EXPECT_GE(sc.attributed_cost_s, 0.0);
      EXPECT_GE(sc.imbalance_ratio, 1.0);
    }
    EXPECT_FALSE(report.why.empty());
    // The winner is the minimum attributed cost.
    const auto best_key =
        AutotuneReport::TrialKey{report.best, report.best_tile};
    for (const auto& [k, sc] : report.scores) {
      EXPECT_GE(sc.attributed_cost_s,
                report.scores.at(best_key).attributed_cost_s);
    }
    // Rank agreement on the winner (scores were allreduced).
    std::vector<std::int64_t> mode_id{static_cast<int>(report.best)};
    std::vector<std::int64_t> mode_max = mode_id;
    comm.allreduce(std::span<std::int64_t>(mode_max), smpi::ReduceOp::Max);
    EXPECT_EQ(mode_id[0], mode_max[0]);
    // The machine-readable report validates, including per-trial scores.
    if (comm.rank() == 0) {
      const std::string json = jitfd::core::autotune_report_json(report);
      const obs::SchemaCheck check =
          obs::validate(json, obs::autotune_schema());
      EXPECT_TRUE(check.ok) << check.error << "\n" << json;
      EXPECT_EQ(check.doc.find("autotune")->find("trials")->arr.size(), 6U);
    }
    (void)op;
  });
}

TEST(Autotune, InjectedImbalancePinsRankAndRecommendsRebalance) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const int kSlowRank = 2;
  // 4 ms per step on a 16x16 problem: dominates real compute and an OS
  // timeslice, so every trial's score must blame the same rank even on
  // a loaded one-core box.
  ScopedEnv delay_rank("JITFD_DELAY_RANK", std::to_string(kSlowRank));
  ScopedEnv delay_us("JITFD_DELAY_US", "4000");
  smpi::launch({.nranks = 4}, [kSlowRank](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report, {}, Objective::Attributed);
    ASSERT_FALSE(report.scores.empty());
    for (const auto& [k, sc] : report.scores) {
      EXPECT_EQ(sc.critical_rank, kSlowRank);
      EXPECT_GT(sc.imbalance_ratio, report.rebalance_threshold);
      EXPECT_GT(sc.imbalance_penalty_s, 0.0);
    }
    // The persistent skew surfaces as a rebalance recommendation with
    // the pinned rank, and the decision trail says so.
    EXPECT_TRUE(report.rebalance_recommended);
    EXPECT_EQ(report.rebalance_rank, kSlowRank);
    EXPECT_NE(report.why.find("rebalance recommended"), std::string::npos)
        << report.why;
    EXPECT_NE(report.why.find("rank " + std::to_string(kSlowRank)),
              std::string::npos)
        << report.why;
    (void)op;
    (void)comm;
  });
}

TEST(Autotune, ReportJsonRejectsMissingWhy) {
  AutotuneReport report;
  report.why = "wall objective: basic untiled wins";
  report.seconds_by_trial[{ir::MpiMode::Basic, {}}] = 0.5;
  const std::string good = jitfd::core::autotune_report_json(report);
  const obs::SchemaCheck ok = obs::validate(good, obs::autotune_schema());
  EXPECT_TRUE(ok.ok) << ok.error << "\n" << good;

  report.why.clear();
  const std::string bad = jitfd::core::autotune_report_json(report);
  const obs::SchemaCheck check = obs::validate(bad, obs::autotune_schema());
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("why"), std::string::npos) << check.error;

  // Under the attributed objective every trial must carry its score.
  report.why = "attributed objective: basic untiled wins";
  report.objective = jitfd::core::Objective::Attributed;
  const obs::SchemaCheck unscored = obs::validate(
      jitfd::core::autotune_report_json(report), obs::autotune_schema());
  EXPECT_FALSE(unscored.ok);
  EXPECT_NE(unscored.error.find("score"), std::string::npos)
      << unscored.error;
}

TEST(Autotune, TunedOperatorMatchesSerialReference) {
  const std::int64_t n = 12;
  const int steps = 4;
  const double dt = 1e-3;
  std::vector<float> expected;
  {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    Operator op({diffusion_eq(u)});
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    expected = u.gather(steps % 2);
  }
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", dt}}, 0, 2);
    op->apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    const auto got = u.gather(steps % 2);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

}  // namespace
