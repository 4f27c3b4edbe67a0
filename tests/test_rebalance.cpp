// Imbalance-aware decomposition: the rebalance planning math
// (rate-proportional biased splits, clamps, deterministic rounding) and
// the correctness bar behind it — a biased dimension-0 split must
// produce bitwise-identical wavefields to the uniform split on every
// pattern, halo width and transport, because decomposition
// placement is never allowed to change the model.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/operator.h"
#include "grid/function.h"
#include "grid/grid.h"
#include "obs/analysis.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Decomposition;
using jitfd::grid::Grid;
using jitfd::grid::RebalanceOptions;
using jitfd::grid::RebalancePlan;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

// ---------------------------------------------------------------------
// Decomposition: explicit-sizes splits.
// ---------------------------------------------------------------------

TEST(Decomposition, ExplicitSizesIndexArithmetic) {
  const Decomposition d(28, std::vector<std::int64_t>{10, 10, 4, 4});
  EXPECT_FALSE(d.uniform());
  EXPECT_EQ(d.parts(), 4);
  EXPECT_EQ(d.global_size(), 28);
  EXPECT_EQ(d.size_of(0), 10);
  EXPECT_EQ(d.size_of(2), 4);
  EXPECT_EQ(d.start_of(0), 0);
  EXPECT_EQ(d.start_of(1), 10);
  EXPECT_EQ(d.start_of(3), 24);
  EXPECT_EQ(d.owner_of(0), 0);
  EXPECT_EQ(d.owner_of(9), 0);
  EXPECT_EQ(d.owner_of(10), 1);
  EXPECT_EQ(d.owner_of(23), 2);
  EXPECT_EQ(d.owner_of(27), 3);
  EXPECT_EQ(d.global_to_local(1, 15), 5);
  EXPECT_EQ(d.global_to_local(0, 15), -1);
  EXPECT_EQ(d.local_to_global(2, 3), 23);
  // localize_slice against the biased boundaries.
  const auto [lo, hi] = d.localize_slice(1, 8, 14);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 4);
  EXPECT_EQ(d.sizes(), (std::vector<std::int64_t>{10, 10, 4, 4}));
}

TEST(Decomposition, ExplicitSizesMatchingUniformStaysUniform) {
  // 10 = 3+3+2+2 is exactly the uniform split of 10 over 4: the
  // explicit form must degrade to the uniform representation so
  // uniform() keeps meaning "no bias applied".
  const Decomposition d(10, std::vector<std::int64_t>{3, 3, 2, 2});
  EXPECT_TRUE(d.uniform());
  const Decomposition u(10, 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.size_of(p), u.size_of(p));
    EXPECT_EQ(d.start_of(p), u.start_of(p));
  }
}

TEST(Decomposition, ExplicitSizesRejectsMalformedRequests) {
  EXPECT_THROW(Decomposition(8, std::vector<std::int64_t>{}),
               std::invalid_argument);
  EXPECT_THROW(Decomposition(8, std::vector<std::int64_t>{4, 0, 4}),
               std::invalid_argument);
  EXPECT_THROW(Decomposition(8, std::vector<std::int64_t>{4, 5}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Rebalance planning math.
// ---------------------------------------------------------------------

TEST(Rebalance, BalancedLoadKeepsUniformSplit) {
  const Decomposition d(32, 4);
  const RebalancePlan plan =
      d.rebalance(std::vector<double>{1.0, 1.05, 1.0, 0.95});
  EXPECT_FALSE(plan.changed);
  EXPECT_NE(plan.reason.find("balanced"), std::string::npos) << plan.reason;
  EXPECT_EQ(plan.sizes, d.sizes());
  EXPECT_LT(plan.measured_ratio, 1.25);
}

TEST(Rebalance, SlowPartShrinksAndSumIsPreserved) {
  const Decomposition d(32, 4);
  const RebalancePlan plan =
      d.rebalance(std::vector<double>{1.0, 1.0, 3.0, 1.0});
  EXPECT_TRUE(plan.changed) << plan.reason;
  EXPECT_EQ(plan.critical_part, 2);
  EXPECT_NEAR(plan.measured_ratio, 2.0, 1e-12);
  ASSERT_EQ(plan.sizes.size(), 4U);
  EXPECT_EQ(std::accumulate(plan.sizes.begin(), plan.sizes.end(),
                            std::int64_t{0}),
            32);
  // The slow part ends with strictly fewer points than every fast part,
  // but never below the max_shrink floor (half of uniform 8 = 4).
  for (int p = 0; p < 4; ++p) {
    if (p != 2) {
      EXPECT_GT(plan.sizes[static_cast<std::size_t>(p)], plan.sizes[2]);
    }
  }
  EXPECT_GE(plan.sizes[2], 4);
  // The decision trail names the ratio, the threshold and the shrink.
  EXPECT_NE(plan.reason.find("ratio"), std::string::npos) << plan.reason;
  EXPECT_NE(plan.reason.find("part 2"), std::string::npos) << plan.reason;
}

TEST(Rebalance, RoundingIsDeterministicAcrossCalls) {
  const Decomposition d(29, 4);  // Non-divisible global: remainders matter.
  const std::vector<double> seconds{1.0, 2.2, 1.3, 1.1};
  const RebalancePlan a = d.rebalance(seconds);
  const RebalancePlan b = d.rebalance(seconds);
  EXPECT_EQ(a.sizes, b.sizes);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(std::accumulate(a.sizes.begin(), a.sizes.end(), std::int64_t{0}),
            29);
}

TEST(Rebalance, ClampFloorsRespectOptions) {
  const Decomposition d(32, 4);
  RebalanceOptions opts;
  opts.max_shrink = 0.75;
  // A 100x slow part would shrink to nearly nothing; the floor holds it
  // at ceil-like 0.75 * 8 = 6 and the reason records the clamp.
  const RebalancePlan plan =
      d.rebalance(std::vector<double>{1.0, 1.0, 100.0, 1.0}, opts);
  EXPECT_TRUE(plan.changed) << plan.reason;
  EXPECT_GE(plan.sizes[2], 6);
  EXPECT_NE(plan.reason.find("clamped"), std::string::npos) << plan.reason;
}

TEST(Rebalance, MalformedMeasurementsKeepTheSplitWithReason) {
  const Decomposition d(32, 4);
  const RebalancePlan wrong_arity =
      d.rebalance(std::vector<double>{1.0, 2.0});
  EXPECT_FALSE(wrong_arity.changed);
  EXPECT_FALSE(wrong_arity.reason.empty());
  const RebalancePlan non_positive =
      d.rebalance(std::vector<double>{1.0, 0.0, 1.0, 1.0});
  EXPECT_FALSE(non_positive.changed);
  EXPECT_FALSE(non_positive.reason.empty());
}

TEST(Rebalance, AnalysisReportOverloadMapsRanksToParts) {
  const Decomposition d(32, 4);
  obs::AnalysisReport rep;
  for (int r = 0; r < 4; ++r) {
    rep.rank_loads.push_back({r, r == 1 ? 3.0 : 1.0});
  }
  const RebalancePlan plan = d.rebalance(rep);
  EXPECT_TRUE(plan.changed) << plan.reason;
  EXPECT_EQ(plan.critical_part, 1);

  obs::AnalysisReport short_rep;
  short_rep.rank_loads.push_back({0, 1.0});
  const RebalancePlan bad = d.rebalance(short_rep);
  EXPECT_FALSE(bad.changed);
  EXPECT_FALSE(bad.reason.empty());
}

// ---------------------------------------------------------------------
// Grid-level correctness bar: biased splits never change the model.
// ---------------------------------------------------------------------

constexpr std::int64_t kEdge = 24;
constexpr int kSteps = 4;

// One diffusion run on 4 ranks over a pinned {4, 1} topology, gathered
// on rank 0 (the parent under both transports, so the returned field is
// valid in the caller). Empty `dim0_sizes` = uniform split.
std::vector<float> gathered_diffusion(
    smpi::TransportKind transport, ir::MpiMode mode, int so,
    const std::vector<std::int64_t>& dim0_sizes) {
  std::vector<float> out;
  smpi::launch({.nranks = 4, .transport = transport},
               [&](smpi::Communicator& comm) {
    const std::vector<int> topo{4, 1};
    std::optional<Grid> g;
    if (dim0_sizes.empty()) {
      g.emplace(std::vector<std::int64_t>{kEdge, kEdge},
                std::vector<double>{1.0, 1.0}, comm, topo);
    } else {
      g.emplace(std::vector<std::int64_t>{kEdge, kEdge},
                std::vector<double>{1.0, 1.0}, comm, topo, dim0_sizes);
    }
    TimeFunction u("u", *g, so, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{kEdge - 1, kEdge - 1}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                sym::Ex(0), u.forward()))},
                opts);
    op.apply({.time_m = 0,
              .time_M = kSteps - 1,
              .scalars = {{"dt", 1e-3}}});
    const auto data = u.gather(kSteps % 2);
    if (comm.rank() == 0) {
      out = data;
    }
               });
  return out;
}

// SO 2 and SO 4 read one and two points across each rank boundary; even
// the biased split's 4-row rank owns more rows than that.
class BiasedSplitEquality
    : public ::testing::TestWithParam<std::tuple<ir::MpiMode, int>> {};

TEST_P(BiasedSplitEquality, BitwiseEqualToUniformOnBothTransports) {
  const auto [mode, so] = GetParam();
  // An aggressively skewed dimension-0 split of 24 rows: {8, 4, 6, 6}
  // (uniform would be {6, 6, 6, 6}).
  const std::vector<std::int64_t> biased{8, 4, 6, 6};
  for (const smpi::TransportKind transport :
       {smpi::TransportKind::Threads, smpi::TransportKind::ProcessShm}) {
    const std::vector<float> uniform =
        gathered_diffusion(transport, mode, so, {});
    const std::vector<float> rebalanced =
        gathered_diffusion(transport, mode, so, biased);
    ASSERT_EQ(uniform.size(),
              static_cast<std::size_t>(kEdge * kEdge));
    ASSERT_EQ(rebalanced.size(), uniform.size());
    EXPECT_EQ(std::memcmp(uniform.data(), rebalanced.data(),
                          uniform.size() * sizeof(float)),
              0)
        << "mode " << ir::to_string(mode) << " so " << so << " transport "
        << smpi::to_string(transport);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndOrders, BiasedSplitEquality,
    ::testing::Combine(::testing::Values(ir::MpiMode::Basic,
                                         ir::MpiMode::Diagonal,
                                         ir::MpiMode::Full),
                       ::testing::Values(2, 4)));

TEST(GridRebalance, RankDivergentSizesRejectedOnAllRanks) {
  // Each rank requests a different biased split: the allreduce check
  // must reject the bias on EVERY rank (uniform fallback, recorded
  // clamp reason) instead of deadlocking or diverging.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    std::vector<std::int64_t> sizes{8, 4, 6, 6};
    if (comm.rank() % 2 == 1) {
      sizes = {4, 8, 6, 6};
    }
    const Grid g({kEdge, kEdge}, {1.0, 1.0}, comm, {4, 1}, sizes);
    EXPECT_FALSE(g.rebalance_clamp_reason().empty());
    EXPECT_NE(g.rebalance_clamp_reason().find("diverge"), std::string::npos)
        << g.rebalance_clamp_reason();
    // The grid fell back to the uniform split.
    EXPECT_TRUE(g.decomposition(0).uniform());
    EXPECT_EQ(g.local_shape()[0], kEdge / 4);
  });
}

TEST(GridRebalance, UniformRequestIsAppliedAndShrinksMinLocalSize) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const std::vector<std::int64_t> sizes{8, 4, 6, 6};
    const Grid g({kEdge, kEdge}, {1.0, 1.0}, comm, {4, 1}, sizes);
    EXPECT_TRUE(g.rebalance_clamp_reason().empty())
        << g.rebalance_clamp_reason();
    EXPECT_FALSE(g.decomposition(0).uniform());
    EXPECT_EQ(g.min_local_size(0), 4);
    EXPECT_EQ(g.local_shape()[0],
              sizes[static_cast<std::size_t>(
                  g.cart()->my_coords()[0])]);
  });
}

TEST(GridRebalance, PlanRebalanceClampsOnSerialAndArityMismatch) {
  const Grid serial({kEdge, kEdge}, {1.0, 1.0});
  obs::AnalysisReport rep;
  rep.rank_loads.push_back({0, 1.0});
  const RebalancePlan plan = serial.plan_rebalance(rep);
  EXPECT_FALSE(plan.changed);
  EXPECT_FALSE(plan.reason.empty());

  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({kEdge, kEdge}, {1.0, 1.0}, comm, {4, 1});
    obs::AnalysisReport bad;
    bad.rank_loads.push_back({0, 1.0});  // 1 load for 4 ranks.
    const RebalancePlan p = g.plan_rebalance(bad);
    EXPECT_FALSE(p.changed);
    EXPECT_FALSE(p.reason.empty());
  });
}

TEST(GridRebalance, PlanRebalancePinsTheLoadedSlab) {
  // Rank-uniform loads with rank 2 three times slower: the plan must
  // shrink part 2 of the dimension-0 decomposition.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({kEdge, kEdge}, {1.0, 1.0}, comm, {4, 1});
    obs::AnalysisReport rep;
    for (int r = 0; r < 4; ++r) {
      rep.rank_loads.push_back({r, r == 2 ? 3.0 : 1.0});
    }
    const RebalancePlan plan = g.plan_rebalance(rep);
    EXPECT_TRUE(plan.changed) << plan.reason;
    EXPECT_EQ(plan.critical_part, 2);
    ASSERT_EQ(plan.sizes.size(), 4U);
    for (int p = 0; p < 4; ++p) {
      if (p != 2) {
        EXPECT_GT(plan.sizes[static_cast<std::size_t>(p)], plan.sizes[2]);
      }
    }
  });
}

}  // namespace
