// End-to-end Operator tests: correctness of the executed lowered IET on
// serial and distributed grids, equivalence of all three MPI patterns
// with the serial reference, JIT-vs-interpreter agreement, and the
// ablation options (flop reduction, blocking).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/operator.h"
#include "grid/function.h"
#include "perfmodel/compare.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

// The paper's Listing 1 diffusion setup on an n x n grid.
struct Diffusion {
  explicit Diffusion(const Grid& g, int so = 2)
      : u("u", g, so, 1),
        eq(u.forward(),
           sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward())) {}
  TimeFunction u;
  ir::Eq eq;
};

// Run `steps` diffusion steps; initial condition: ones in the global box
// [1, n-1)^2 (Listing 1 line 14).
std::vector<float> run_diffusion(const Grid& g, ir::CompileOptions opts,
                                 int steps, double dt,
                                 core::Backend backend =
                                     core::Backend::Interpret,
                                 jitfd::runtime::HaloStats* stats = nullptr,
                                 int so = 2) {
  Diffusion d(g, so);
  const std::vector<std::int64_t> lo{1, 1};
  const std::vector<std::int64_t> hi{g.shape()[0] - 1, g.shape()[1] - 1};
  d.u.fill_global_box(0, lo, hi, 1.0F);
  Operator op({d.eq}, opts);
  op.set_default_backend(backend);
  const auto run = op.apply(
      {.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
  if (stats != nullptr) {
    *stats = run.halo;
  }
  return d.u.gather(steps % d.u.time_buffers());
}

TEST(Operator, SerialDiffusionMatchesHandComputedStep) {
  const Grid g({4, 4}, {2.0, 2.0});
  const double h = g.spacing(0);
  const double dt = 0.25 * h * h / 0.5;  // Listing 1's sigma*dx*dy/nu.
  const auto result = run_diffusion(g, {}, /*steps=*/1, dt);
  ASSERT_EQ(result.size(), 16U);

  // Reference: u' = u + dt * laplacian(u), ghost values 0.
  auto u0 = [](std::int64_t i, std::int64_t j) {
    return (i >= 1 && i < 3 && j >= 1 && j < 3) ? 1.0 : 0.0;
  };
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      const double lap =
          (u0(i + 1, j) + u0(i - 1, j) - 2 * u0(i, j)) / (h * h) +
          (u0(i, j + 1) + u0(i, j - 1) - 2 * u0(i, j)) / (h * h);
      const double expected = u0(i, j) + dt * lap;
      EXPECT_NEAR(result[static_cast<std::size_t>(4 * i + j)], expected, 1e-5)
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Operator, UnboundScalarThrows) {
  const Grid g({4, 4}, {1.0, 1.0});
  Diffusion d(g);
  Operator op({d.eq});
  EXPECT_THROW(op.apply({.time_m = 0, .time_M = 0}),
               std::invalid_argument);  // dt missing.
}

TEST(Operator, ReservedScalarBindingThrowsNamingTheSymbol) {
  // The runtime binds the spacings and the health interval. On this
  // equally spaced grid the kernel reads only h_x, so a caller's h_x
  // would change the stencil and a caller's h_y nothing, both silently.
  const Grid g({12, 12}, {1.0, 1.0});
  Diffusion d(g);
  Operator op({d.eq});
  for (const char* name : {"h_x", "h_y", "jitfd_health_every"}) {
    try {
      op.apply({.time_m = 0,
                .time_M = 0,
                .scalars = {{"dt", 1e-3}, {name, 2.0}}});
      ADD_FAILURE() << "binding " << name << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(
      op.apply({.time_m = 0, .time_M = 0, .scalars = {{"dt", 1e-3}}}));
}

TEST(Operator, PointsUpdatedTracksGptsNumerator) {
  const Grid g({8, 8}, {1.0, 1.0});
  Diffusion d(g);
  Operator op({d.eq});
  const auto run = op.apply(
      {.time_m = 0, .time_M = 4, .scalars = {{"dt", 1e-3}}});
  EXPECT_EQ(run.points_updated, 64 * 5);
  EXPECT_EQ(run.steps, 5);
  EXPECT_GT(run.gpts_per_s, 0.0);
}

class ModeEquivalence
    : public ::testing::TestWithParam<std::tuple<ir::MpiMode, int>> {};

TEST_P(ModeEquivalence, DistributedDiffusionMatchesSerial) {
  const auto [mode, nranks] = GetParam();
  const std::int64_t n = 12;
  const int steps = 5;
  const double dt = 1e-3;

  const Grid serial({n, n}, {1.0, 1.0});
  const auto expected = run_diffusion(serial, {}, steps, dt);

  smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    ir::CompileOptions opts;
    opts.mode = mode;
    const auto got = run_diffusion(g, opts, steps, dt);
    if (comm.rank() == 0) {
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ModeEquivalence,
    ::testing::Values(std::tuple{ir::MpiMode::Basic, 4},
                      std::tuple{ir::MpiMode::Diagonal, 4},
                      std::tuple{ir::MpiMode::Full, 4},
                      std::tuple{ir::MpiMode::Basic, 3},
                      std::tuple{ir::MpiMode::Diagonal, 6},
                      std::tuple{ir::MpiMode::Full, 2}));

TEST(Operator, HigherOrderStencilAcrossRanks) {
  // SDO 8 reads 4 halo points: exercises multi-point-wide exchanges.
  const std::int64_t n = 24;
  const int steps = 3;
  const double dt = 1e-4;

  const Grid serial({n, n}, {1.0, 1.0});
  std::vector<float> expected;
  {
    TimeFunction u("u", serial, 8, 1);
    const std::vector<std::int64_t> lo{n / 2 - 1, n / 2 - 1};
    const std::vector<std::int64_t> hi{n / 2 + 1, n / 2 + 1};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op({ir::Eq(
        u.forward(),
        sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()))});
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    expected = u.gather(steps % 2);
  }

  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({n, n}, {1.0, 1.0}, comm);
      TimeFunction u("u", g, 8, 1);
      const std::vector<std::int64_t> lo{n / 2 - 1, n / 2 - 1};
      const std::vector<std::int64_t> hi{n / 2 + 1, n / 2 + 1};
      u.fill_global_box(0, lo, hi, 1.0F);
      ir::CompileOptions opts;
      opts.mode = mode;
      Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                  sym::Ex(0), u.forward()))},
                  opts);
      op.apply({.time_m = 0, .time_M = steps - 1,
                .scalars = {{"dt", dt}}});
      const auto got = u.gather(steps % 2);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(got[i], expected[i], 1e-6)
              << "mode " << ir::to_string(mode) << " at " << i;
        }
      }
    });
  }
}

TEST(Operator, SecondOrderInTimeBufferCycling) {
  // A wave-like second-order update over several steps checks the
  // 3-buffer modulo indexing against a direct reference recurrence.
  const std::int64_t n = 8;
  const Grid g({n, n}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 2);
  const std::vector<std::int64_t> pt{4, 4};
  u.set_global(1, pt, 1.0F);  // u at t=0 lives in buffer (0+0)%3... seed t0=1.

  // u[t+1] = 2u[t] - u[t-1] + c * lap(u[t]).
  const double c = 1e-3;
  Operator op({ir::Eq(u.forward(),
                      2 * u.now() - u.backward() + sym::Ex(c) * u.laplace())});
  op.apply({.time_m = 1, .time_M = 6});

  // Reference recurrence on dense arrays.
  const double h = g.spacing(0);
  std::vector<std::vector<double>> prev(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<double>> now(n, std::vector<double>(n, 0.0));
  now[4][4] = 1.0;
  for (int step = 0; step < 6; ++step) {
    std::vector<std::vector<double>> next(n, std::vector<double>(n, 0.0));
    auto at = [&](const std::vector<std::vector<double>>& a, std::int64_t i,
                  std::int64_t j) {
      return (i >= 0 && i < n && j >= 0 && j < n)
                 ? a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]
                 : 0.0;
    };
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const double lap = (at(now, i + 1, j) + at(now, i - 1, j) +
                            at(now, i, j + 1) + at(now, i, j - 1) -
                            4 * at(now, i, j)) /
                           (h * h);
        next[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            2 * at(now, i, j) - at(prev, i, j) + c * lap;
      }
    }
    prev = now;
    now = next;
  }

  // After steps 1..6, u[t+1] last written at time=6 -> buffer (6+1)%3 = 1.
  const auto result = u.gather(1);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(result[static_cast<std::size_t>(n * i + j)],
                  now[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)],
                  1e-5);
    }
  }
}

TEST(Operator, FlopReduceAndBlockingPreserveResults) {
  const std::int64_t n = 16;
  const double dt = 1e-3;
  const Grid g({n, n}, {1.0, 1.0});
  const auto reference = run_diffusion(g, {}, 4, dt);

  for (const bool reduce : {false, true}) {
    for (const std::int64_t tile : {std::int64_t{0}, std::int64_t{5}}) {
      const Grid g2({n, n}, {1.0, 1.0});
      ir::CompileOptions opts;
      opts.flop_reduce = reduce;
      if (tile > 0) {
        opts.tile = {tile, 0};
      }
      const auto got = run_diffusion(g2, opts, 4, dt);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], reference[i], 1e-5)
            << "reduce=" << reduce << " tile=" << tile << " at " << i;
      }
    }
  }
}

TEST(Operator, CoupledFirstOrderSystemDistributed) {
  // A staggered-style first-order system (velocity/stress toy model):
  // checks multi-cluster lowering + exchange of freshly written fields.
  const std::int64_t n = 16;
  const int steps = 4;
  const double dt = 1e-2;

  auto run = [&](const Grid& g, ir::CompileOptions opts) {
    TimeFunction v("v", g, 4, 1);
    TimeFunction s("s", g, 4, 1);
    const std::vector<std::int64_t> lo{n / 2, n / 2};
    const std::vector<std::int64_t> hi{n / 2 + 1, n / 2 + 1};
    s.fill_global_box(0, lo, hi, 1.0F);
    const sym::Ex dts = jitfd::grid::dt_symbol();
    const ir::Eq eq1(v.forward(), v.now() + dts * s.dx_stag(0, -1));
    const ir::Eq eq2(
        s.forward(),
        s.now() + dts * sym::diff_stag(v.forward(), 0, 4, +1));
    Operator op({eq1, eq2}, opts);
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    return std::pair{v.gather(steps % 2), s.gather(steps % 2)};
  };

  const Grid serial({n, n}, {1.0, 1.0});
  const auto [v_ref, s_ref] = run(serial, {});
  ASSERT_GT(s_ref.size(), 0U);
  // The pulse must have propagated (stress changed away from centre).
  double spread = 0.0;
  for (const float x : s_ref) {
    spread += std::abs(x);
  }
  EXPECT_GT(spread, 1.0);

  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({n, n}, {1.0, 1.0}, comm);
      ir::CompileOptions opts;
      opts.mode = mode;
      const auto [v_got, s_got] = run(g, opts);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < s_got.size(); ++i) {
          ASSERT_NEAR(s_got[i], s_ref[i], 1e-5)
              << "mode " << ir::to_string(mode);
          ASSERT_NEAR(v_got[i], v_ref[i], 1e-5);
        }
      }
    });
  }
}

TEST(Operator, AutoUpgradesModeOnDistributedGrids) {
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    Diffusion d(g);
    Operator op({d.eq});  // mode None requested.
    EXPECT_EQ(op.options().mode, ir::MpiMode::Basic);
  });
}

TEST(Operator, DescribeReportsCompilationSummary) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    Diffusion d(g);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Diagonal;
    Operator op({d.eq}, opts);
    const std::string s = op.describe();
    if (comm.rank() == 0) {
      EXPECT_NE(s.find("1 equation(s)"), std::string::npos) << s;
      EXPECT_NE(s.find("4 ranks"), std::string::npos);
      EXPECT_NE(s.find("topology (2,2)"), std::string::npos);
      EXPECT_NE(s.find("mode diagonal"), std::string::npos);
      EXPECT_NE(s.find("u[x2]"), std::string::npos);
      EXPECT_NE(s.find("clusters: 1"), std::string::npos);
      EXPECT_NE(s.find("halo spots: 1"), std::string::npos);
      EXPECT_NE(s.find("flops/point:"), std::string::npos);
    }
  });
}

TEST(Operator, HaloStatsMatchTableOneMessageCounts) {
  // 2D, 2x2 ranks: every rank has 2 face neighbours (basic) and 3 star
  // neighbours (diagonal) -> totals 8 vs 12 messages per exchange. At
  // 64^2 and SO 4 every rank owns 32^2 points and sends width-2 slabs:
  // basic sends its dimension-1 face with the corners (2*32 + 2*36
  // floats), diagonal and full send two faces and one 2x2 corner
  // (2*32 + 2*32 + 4 floats). Summed over the ranks: 2176 and 2112 bytes.
  const std::int64_t n = 64;
  for (const auto& [mode, expected_messages, expected_bytes] :
       std::initializer_list<
           std::tuple<ir::MpiMode, std::int64_t, std::int64_t>>{
           {ir::MpiMode::Basic, 8, 2176},
           {ir::MpiMode::Diagonal, 12, 2112},
           {ir::MpiMode::Full, 12, 2112}}) {
    const ir::MpiMode m = mode;
    const std::vector<std::int64_t> expect{expected_messages,
                                           expected_bytes};
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({n, n}, {1.0, 1.0}, comm);
      ir::CompileOptions opts;
      opts.mode = m;
      jitfd::runtime::HaloStats stats;
      run_diffusion(g, opts, /*steps=*/1, 1e-3,
                    core::Backend::Interpret, &stats, /*so=*/4);
      std::vector<std::int64_t> total{
          static_cast<std::int64_t>(stats.messages),
          static_cast<std::int64_t>(stats.bytes_sent)};
      comm.allreduce(std::span<std::int64_t>(total), smpi::ReduceOp::Sum);
      if (comm.rank() == 0) {
        EXPECT_EQ(total, expect) << "mode " << ir::to_string(m);
      }
      if (m == ir::MpiMode::Full) {
        EXPECT_GT(stats.progress_calls, 0U);
        EXPECT_EQ(stats.starts, 1U);
      }
    });
  }
}

// Every schedule exchanges once per time step. On each 4-rank process
// grid, both backends must issue one halo update (basic, diagonal) or one
// start (full) per step on every rank, and the messages summed over the
// ranks must be Table I's count for one exchange times the step count,
// while the field still matches the serial run.
class ExchangeOncePerStep
    : public ::testing::TestWithParam<
          std::tuple<ir::MpiMode, core::Backend, std::vector<int>>> {};

TEST_P(ExchangeOncePerStep, TableOneMessagesEveryStepAndSerialField) {
  const auto& [mode, backend, topology] = GetParam();
  const std::int64_t n = 12;
  const int steps = 3;
  const double dt = 1e-3;

  const Grid serial({n, n}, {1.0, 1.0});
  const auto expected = run_diffusion(serial, {}, steps, dt, backend);

  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm, topology);
    ir::CompileOptions opts;
    opts.mode = mode;
    jitfd::runtime::HaloStats stats;
    const auto got = run_diffusion(g, opts, steps, dt, backend, &stats);
    const auto per_step = static_cast<std::uint64_t>(steps);
    if (mode == ir::MpiMode::Full) {
      EXPECT_EQ(stats.starts, per_step);
      EXPECT_EQ(stats.updates, 0U);
    } else {
      EXPECT_EQ(stats.updates, per_step);
      EXPECT_EQ(stats.starts, 0U);
    }
    std::vector<std::int64_t> total{
        static_cast<std::int64_t>(stats.messages)};
    comm.allreduce(std::span<std::int64_t>(total), smpi::ReduceOp::Sum);
    if (comm.rank() == 0) {
      EXPECT_EQ(static_cast<std::uint64_t>(total[0]),
                jitfd::perf::table1_messages(topology, mode) * per_step);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    PatternsBackendsTopologies, ExchangeOncePerStep,
    ::testing::Combine(
        ::testing::Values(ir::MpiMode::Basic, ir::MpiMode::Diagonal,
                          ir::MpiMode::Full),
        ::testing::Values(core::Backend::Interpret, core::Backend::Jit),
        ::testing::Values(std::vector<int>{2, 2}, std::vector<int>{4, 1},
                          std::vector<int>{1, 4})),
    [](const auto& info) {
      const std::vector<int>& topology = std::get<2>(info.param);
      return std::string(ir::to_string(std::get<0>(info.param))) + "_" +
             (std::get<1>(info.param) == core::Backend::Jit ? "jit"
                                                            : "interpret") +
             "_" + std::to_string(topology[0]) + "x" +
             std::to_string(topology[1]);
    });

// Uneven blocks: the split front-loads the remainder, so on 23 x 21 every
// topology below leaves neighbours of different sizes ({4, 1}: rows
// 6+6+6+5; {1, 4}: columns 6+5+5+5; {2, 2}: 12+11 by 11+10). Where the
// block boundaries fall must not change the model: rank 0's gathered
// field is bit-for-bit the serial run's, for every pattern, halo width
// and transport.
class UnevenSplitEquality
    : public ::testing::TestWithParam<
          std::tuple<ir::MpiMode, int, std::vector<int>>> {};

TEST_P(UnevenSplitEquality, BitwiseEqualToSerialOnBothTransports) {
  const auto& [mode, so, topology] = GetParam();
  const std::int64_t n0 = 23;
  const std::int64_t n1 = 21;
  const int steps = 4;
  const double dt = 0.1;  // Unit spacing: stable for SO 2 and SO 4.
  const std::vector<double> extent{22.0, 20.0};

  const Grid serial({n0, n1}, extent);
  const auto expected = run_diffusion(serial, {}, steps, dt,
                                      core::Backend::Interpret, nullptr, so);
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(n0 * n1));

  for (const smpi::TransportKind transport :
       {smpi::TransportKind::Threads, smpi::TransportKind::ProcessShm}) {
    std::vector<float> got;
    std::vector<int> used_topology;
    smpi::launch({.nranks = 4, .transport = transport},
                 [&](smpi::Communicator& comm) {
      const Grid g({n0, n1}, extent, comm, topology);
      ir::CompileOptions opts;
      opts.mode = mode;
      const auto data = run_diffusion(g, opts, steps, dt,
                                      core::Backend::Interpret, nullptr, so);
      // Rank 0 runs in the calling process on both transports.
      if (comm.rank() == 0) {
        got = data;
        used_topology = g.topology();
      }
    });
    EXPECT_EQ(used_topology, topology);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(float)),
              0)
        << "transport " << smpi::to_string(transport);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsOrdersTopologies, UnevenSplitEquality,
    ::testing::Combine(
        ::testing::Values(ir::MpiMode::Basic, ir::MpiMode::Diagonal,
                          ir::MpiMode::Full),
        ::testing::Values(2, 4),
        ::testing::Values(std::vector<int>{4, 1}, std::vector<int>{1, 4},
                          std::vector<int>{2, 2})),
    [](const auto& info) {
      const std::vector<int>& topology = std::get<2>(info.param);
      return std::string(ir::to_string(std::get<0>(info.param))) + "_so" +
             std::to_string(std::get<1>(info.param)) + "_" +
             std::to_string(topology[0]) + "x" + std::to_string(topology[1]);
    });

}  // namespace
