// Tests for the communication-pattern autotuner (the paper's Section
// IV-F future-work item): trial side effects must be rolled back, the
// choice must be the fastest measured pattern x tile, and the tuned
// operator must produce results identical to the serial reference on
// both rank transports.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/autotune.h"
#include "grid/function.h"
#include "models/acoustic.h"
#include "obs/json_check.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::autotune_operator;
using jitfd::core::AutotuneReport;
using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

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

TEST(Autotune, TileCandidatesCountRowsOfFullFieldsOnly) {
  // The SO-8 acoustic operator on 42 x 320 x 320: a grid row costs 4
  // padded rows of 336 floats (u x3 and m; the damping profiles hold
  // none), so 32 MiB fit 19 rows of 320 and the candidates are 19 and 9
  // along x. Counting the profiles as rows (7) would give 11 and 5, and
  // the full damp field of old (5 rows) 15 and 7.
  const Grid g({42, 320, 320}, {41.0, 319.0, 319.0});
  const jitfd::models::AcousticModel model(g, 8);
  std::vector<jitfd::grid::Function*> fields;
  const auto op = model.make_operator({});
  for (const int id : op->info().field_order) {
    fields.push_back(jitfd::grid::lookup_field(id));
  }
  ASSERT_EQ(fields.size(), 5U);
  const std::vector<std::vector<std::int64_t>> want{
      {}, {19, 0, 0}, {9, 0, 0}};
  EXPECT_EQ(jitfd::core::tile_candidates(fields, g), want);
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
}

class AutotuneTransport
    : public ::testing::TestWithParam<smpi::TransportKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, AutotuneTransport,
    ::testing::Values(smpi::TransportKind::Threads,
                      smpi::TransportKind::ProcessShm),
    [](const ::testing::TestParamInfo<smpi::TransportKind>& info) {
      return info.param == smpi::TransportKind::Threads ? "Threads"
                                                        : "ProcessShm";
    });

// Rank 0 runs in the calling process on both transports, so its
// comparison against the serial reference is checked here.
TEST_P(AutotuneTransport, TunedOperatorMatchesSerialReference) {
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
  const smpi::LaunchOptions launch{.nranks = 4, .transport = GetParam()};
  smpi::launch(launch, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", dt}}, 0, 2);
    op->apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    const auto got = u.gather(steps % 2);
    if (comm.rank() == 0) {
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

}  // namespace
