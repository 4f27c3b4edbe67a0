// Tests for saved TimeFunctions (Devito's `save=N`): the full time
// history is stored instead of a modulo window, through both execution
// backends and under distribution — the storage mode adjoint/FWI
// workflows rely on.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/operator.h"
#include "grid/function.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

TEST(Save, ValidationAndMetadata) {
  const Grid g({8, 8}, {1.0, 1.0});
  const TimeFunction u("u", g, 2, 1, 0, /*save=*/10);
  EXPECT_TRUE(u.saved());
  EXPECT_EQ(u.time_buffers(), 10);
  EXPECT_EQ(u.save_steps(), 10);
  const TimeFunction v("v", g, 2, 1);
  EXPECT_FALSE(v.saved());
  EXPECT_THROW(TimeFunction("w", g, 2, 2, 0, /*save=*/2),
               std::invalid_argument);
  EXPECT_THROW(TimeFunction("w", g, 2, 1, 0, -3), std::invalid_argument);
}

TEST(Save, BufferIndexIsAbsoluteForSavedFields) {
  const Grid g({8, 8}, {1.0, 1.0});
  const TimeFunction u("u", g, 2, 1, 0, /*save=*/8);
  EXPECT_EQ(u.buffer_index(0, 3), 3);
  EXPECT_EQ(u.buffer_index(1, 3), 4);
  EXPECT_EQ(u.buffer_index(-1, 3), 2);
  const TimeFunction v("v", g, 2, 2);
  EXPECT_EQ(v.buffer_index(1, 5), 0);  // (5+1) % 3.
}

// Diffusion with a saved field must reproduce, step by step, the history
// of the modulo-buffered run.
TEST(Save, HistoryMatchesModuloRunStepByStep) {
  const std::int64_t n = 12;
  const int steps = 6;
  const double dt = 1e-3;

  // Saved run: one apply over the whole window.
  const Grid g({n, n}, {1.0, 1.0});
  TimeFunction us("us", g, 2, 1, 0, /*save=*/steps + 1);
  us.fill_global_box(0, std::vector<std::int64_t>{2, 2},
                     std::vector<std::int64_t>{10, 10}, 1.0F);
  Operator ops({ir::Eq(us.forward(), sym::solve(us.dt() - us.laplace(),
                                                sym::Ex(0), us.forward()))});
  ops.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});

  // Modulo run, snapshotting after every step.
  const Grid g2({n, n}, {1.0, 1.0});
  TimeFunction um("um", g2, 2, 1);
  um.fill_global_box(0, std::vector<std::int64_t>{2, 2},
                     std::vector<std::int64_t>{10, 10}, 1.0F);
  Operator opm({ir::Eq(um.forward(), sym::solve(um.dt() - um.laplace(),
                                                sym::Ex(0), um.forward()))});
  for (int t = 0; t < steps; ++t) {
    opm.apply({.time_m = t, .time_M = t, .scalars = {{"dt", dt}}});
    const auto expected = um.gather((t + 1) % 2);
    const auto got = us.gather(t + 1);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "step " << t << " at " << i;
    }
  }
}

TEST(Save, JitBackendWritesAbsoluteIndices) {
  if (std::system("cc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 10;
  const int steps = 5;
  const Grid g({n, n}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1, 0, /*save=*/steps + 1);
  u.fill_global_box(0, std::vector<std::int64_t>{3, 3},
                    std::vector<std::int64_t>{7, 7}, 1.0F);
  Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                              sym::Ex(0), u.forward()))});
  // Generated code must index with the absolute time, no modulo.
  EXPECT_NE(op.ccode().find("const long ts_p0 = time + 0;"),
            std::string::npos)
      << op.ccode();
  EXPECT_NE(op.ccode().find("const long ts_p1 = time + 1;"),
            std::string::npos);
  op.set_default_backend(core::Backend::Jit);
  op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", 1e-3}}});
  // Mass is conserved per stored step (interior plateau, no boundary
  // leakage in this window), and history is non-trivial.
  double mass0 = 0.0;
  double mass_last = 0.0;
  for (const float v : u.gather(0)) {
    mass0 += v;
  }
  for (const float v : u.gather(steps)) {
    mass_last += v;
  }
  EXPECT_NEAR(mass0, 16.0, 1e-4);
  EXPECT_NEAR(mass_last, 16.0, 0.05);  // Slight boundary leakage by step 5.
  EXPECT_NE(u.gather(1), u.gather(steps));
}

TEST(Save, DistributedSavedHistoryMatchesSerial) {
  const std::int64_t n = 12;
  const int steps = 5;
  const double dt = 1e-3;
  std::vector<std::vector<float>> expected;
  {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1, 0, steps + 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{8, 8}, 1.0F);
    Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                sym::Ex(0), u.forward()))});
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    for (int t = 0; t <= steps; ++t) {
      expected.push_back(u.gather(t));
    }
  }
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1, 0, steps + 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{8, 8}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Diagonal;
    Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                sym::Ex(0), u.forward()))},
                opts);
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    for (int t = 0; t <= steps; ++t) {
      const auto got = u.gather(t);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(got[i], expected[static_cast<std::size_t>(t)][i], 1e-6)
              << "step " << t << " at " << i;
        }
      }
    }
  });
}

}  // namespace
