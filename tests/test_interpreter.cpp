// Direct tests of the IET interpreter on hand-built trees: loop bounds,
// temp scoping, sections, the time loop, and error handling — independent
// of the lowering pipeline.
#include <gtest/gtest.h>

#include <cmath>

#include "grid/function.h"
#include "ir/eq.h"
#include "ir/iet.h"
#include "runtime/interpreter.h"

namespace {

using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::runtime::Interpreter;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

struct Fixture {
  Fixture() : grid({6, 5}, {1.0, 1.0}), u("ui", grid, 2, 1) {
    table.add(&u);
  }
  Grid grid;
  TimeFunction u;
  ir::FieldTable table;

  ir::NodePtr nest(ir::Bound xlo, ir::Bound xhi, ir::Bound ylo, ir::Bound yhi,
                   std::vector<ir::NodePtr> body) const {
    auto y = ir::make_iteration(1, ylo, yhi, {}, std::move(body));
    return ir::make_iteration(0, xlo, xhi, {}, {y});
  }
};

TEST(InterpreterDirect, WritesExactlyTheLoopBounds) {
  Fixture f;
  // u[t+1, x, y] = 1 over x in [1, size-1), y in [2, size).
  const auto stmt = ir::make_expression(f.u.forward(), sym::Ex(1));
  const auto loop = f.nest(ir::Bound::absolute(1), ir::Bound::from_size(-1),
                           ir::Bound::absolute(2), ir::Bound::from_size(0),
                           {stmt});
  const auto root = ir::make_callable("K", {ir::make_time_loop({loop})});
  Interpreter interp(root, f.table, nullptr);
  interp.run(0, 0, {});
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      const std::array<std::int64_t, 2> idx{i, j};
      const bool inside = i >= 1 && i < 5 && j >= 2;
      EXPECT_FLOAT_EQ(f.u.at_local(1, idx), inside ? 1.0F : 0.0F)
          << i << "," << j;
    }
  }
}

TEST(InterpreterDirect, TempsAreRecomputedPerPoint) {
  Fixture f;
  // r = x-varying value via a field read; u[t+1] = r * 2. Seed u[t]
  // with distinct values to verify per-point recomputation.
  f.u.init([](std::span<const std::int64_t> gi) {
    return static_cast<float>(gi[0] + 10 * gi[1]);
  });
  const auto t0 = ir::make_expression(sym::symbol("rt"), f.u.now());
  const auto st =
      ir::make_expression(f.u.forward(), sym::symbol("rt") * sym::Ex(2));
  const auto loop = f.nest(ir::Bound::absolute(0), ir::Bound::from_size(0),
                           ir::Bound::absolute(0), ir::Bound::from_size(0),
                           {t0, st});
  const auto root = ir::make_callable("K", {ir::make_time_loop({loop})});
  Interpreter interp(root, f.table, nullptr);
  interp.run(0, 0, {});
  const std::array<std::int64_t, 2> idx{3, 2};
  EXPECT_FLOAT_EQ(f.u.at_local(1, idx), 2.0F * (3 + 20));
}

TEST(InterpreterDirect, ZeroPinStoresPlusZero) {
  // u[t+1] = -u[t]: from +0 the plain store writes -0, the pinned store
  // (value + 0) writes +0. Nonzero values are the same either way.
  for (const bool pin : {false, true}) {
    Fixture f;
    f.u.fill(0.0F);
    const std::array<std::int64_t, 2> hot{2, 3};
    f.u.at_local(0, hot) = 1.5F;
    const auto st = ir::make_expression(f.u.forward(), -f.u.now(), pin);
    const auto loop = f.nest(ir::Bound::absolute(0), ir::Bound::from_size(0),
                             ir::Bound::absolute(0), ir::Bound::from_size(0),
                             {st});
    const auto root = ir::make_callable("K", {ir::make_time_loop({loop})});
    Interpreter interp(root, f.table, nullptr);
    interp.run(0, 0, {});
    const std::array<std::int64_t, 2> quiet{1, 1};
    EXPECT_EQ(std::signbit(f.u.at_local(1, quiet)), !pin) << "pin " << pin;
    EXPECT_EQ(f.u.at_local(1, hot), -1.5F);
  }
}

TEST(InterpreterDirect, TimeLoopRunsInclusiveRange) {
  Fixture f;
  // u[t+1] = u[t] + 1 at one point; after steps 2..5 the value is 4.
  const auto stmt =
      ir::make_expression(f.u.forward(), f.u.now() + sym::Ex(1));
  const auto loop = f.nest(ir::Bound::absolute(0), ir::Bound::absolute(1),
                           ir::Bound::absolute(0), ir::Bound::absolute(1),
                           {stmt});
  const auto root = ir::make_callable("K", {ir::make_time_loop({loop})});
  Interpreter interp(root, f.table, nullptr);
  interp.run(2, 5, {});
  // 4 steps executed; the final write landed in buffer (5+1)%2 = 0.
  const std::array<std::int64_t, 2> idx{0, 0};
  EXPECT_FLOAT_EQ(f.u.at_local(0, idx), 4.0F);
}

TEST(InterpreterDirect, PrologueStatementsRunOnce) {
  Fixture f;
  // Invariant temp defined before the time loop, used inside it.
  const auto inv =
      ir::make_expression(sym::symbol("r0"), sym::symbol("dt") * sym::Ex(3));
  const auto stmt = ir::make_expression(f.u.forward(), sym::symbol("r0"));
  const auto loop = f.nest(ir::Bound::absolute(0), ir::Bound::absolute(2),
                           ir::Bound::absolute(0), ir::Bound::absolute(2),
                           {stmt});
  const auto root =
      ir::make_callable("K", {inv, ir::make_time_loop({loop})});
  Interpreter interp(root, f.table, nullptr);
  interp.run(0, 0, {{"dt", 0.5}});
  const std::array<std::int64_t, 2> idx{1, 1};
  EXPECT_FLOAT_EQ(f.u.at_local(1, idx), 1.5F);
}

TEST(InterpreterDirect, SectionsExecuteChildrenInOrder) {
  Fixture f;
  const auto w1 = ir::make_expression(f.u.forward(), sym::Ex(7));
  const auto w2 =
      ir::make_expression(f.u.forward(), f.u.forward() + sym::Ex(1));
  const auto l1 = f.nest(ir::Bound::absolute(0), ir::Bound::absolute(1),
                         ir::Bound::absolute(0), ir::Bound::absolute(1),
                         {w1});
  const auto l2 = f.nest(ir::Bound::absolute(0), ir::Bound::absolute(1),
                         ir::Bound::absolute(0), ir::Bound::absolute(1),
                         {w2});
  const auto root = ir::make_callable(
      "K", {ir::make_time_loop({ir::make_section("core", {l1, l2})})});
  Interpreter interp(root, f.table, nullptr);
  interp.run(0, 0, {});
  const std::array<std::int64_t, 2> idx{0, 0};
  EXPECT_FLOAT_EQ(f.u.at_local(1, idx), 8.0F);
}

TEST(InterpreterDirect, UnboundScalarThrows) {
  Fixture f;
  const auto stmt = ir::make_expression(f.u.forward(), sym::symbol("mystery"));
  const auto loop = f.nest(ir::Bound::absolute(0), ir::Bound::absolute(1),
                           ir::Bound::absolute(0), ir::Bound::absolute(1),
                           {stmt});
  const auto root = ir::make_callable("K", {ir::make_time_loop({loop})});
  Interpreter interp(root, f.table, nullptr);
  EXPECT_THROW(interp.run(0, 0, {}), std::invalid_argument);
}

TEST(InterpreterDirect, EmptyBoundsExecuteNothing) {
  Fixture f;
  const auto stmt = ir::make_expression(f.u.forward(), sym::Ex(9));
  // lo >= hi: zero iterations.
  const auto loop = f.nest(ir::Bound::absolute(3), ir::Bound::absolute(3),
                           ir::Bound::absolute(0), ir::Bound::from_size(0),
                           {stmt});
  const auto root = ir::make_callable("K", {ir::make_time_loop({loop})});
  Interpreter interp(root, f.table, nullptr);
  interp.run(0, 0, {});
  EXPECT_DOUBLE_EQ(f.u.norm2(1), 0.0);
}

}  // namespace
