// Unit and property tests for the symbolic expression system: canonical
// simplification, manipulation, solve(), CSE/factorization, FD weights.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "symbolic/cse.h"
#include "symbolic/expr.h"
#include "symbolic/fd_weights.h"
#include "symbolic/manip.h"

namespace {

using namespace jitfd::sym;  // NOLINT: test file.

FieldId make_u() { return FieldId{0, "u", 2, true}; }
FieldId make_m() { return FieldId{1, "m", 2, false}; }

TEST(Expr, NumberFoldingAndIdentityRules) {
  const Ex x = symbol("x");
  EXPECT_TRUE((x + 0).node().kind == Kind::Symbol);
  EXPECT_TRUE((x * 1) == x);
  EXPECT_TRUE((x * 0).is_zero());
  EXPECT_TRUE((Ex(2) + Ex(3)) == Ex(5));
  EXPECT_TRUE((Ex(2) * Ex(3)) == Ex(6));
  EXPECT_TRUE(pow(x, 0).is_one());
  EXPECT_TRUE(pow(x, 1) == x);
  EXPECT_TRUE(pow(Ex(2), 10) == Ex(1024));
}

TEST(Expr, AddCollectsLikeTerms) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  EXPECT_TRUE(x + x == 2 * x);
  EXPECT_TRUE(3 * x + 5 * x == 8 * x);
  EXPECT_TRUE(x - x == Ex(0));
  EXPECT_TRUE(2 * x + y - x - y == x);
}

TEST(Expr, MulCollectsPowers) {
  const Ex x = symbol("x");
  EXPECT_TRUE(x * x == pow(x, 2));
  EXPECT_TRUE(pow(x, 2) * pow(x, 3) == pow(x, 5));
  EXPECT_TRUE(x / x == Ex(1));
  EXPECT_TRUE(pow(x, 2) / x == x);
}

TEST(Expr, PowNesting) {
  const Ex x = symbol("x");
  EXPECT_TRUE(pow(pow(x, 2), 3) == pow(x, 6));
  EXPECT_TRUE(pow(pow(x, 2), -1) == pow(x, -2));
}

TEST(Expr, CanonicalOrderIsDeterministic) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  EXPECT_TRUE(a + b == b + a);
  EXPECT_TRUE(a * b == b * a);
  EXPECT_EQ((a + b).to_string(), (b + a).to_string());
}

TEST(Expr, AdditionIsAssociative) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const Ex c = symbol("c");
  EXPECT_TRUE((a + b) + c == a + (b + c));
  EXPECT_TRUE((a * b) * c == a * (b * c));
}

TEST(Expr, DivisionBySymbolicZeroThrows) {
  EXPECT_THROW(symbol("x") / Ex(0), std::domain_error);
  EXPECT_THROW(pow(Ex(0), -1), std::domain_error);
}

TEST(Expr, FieldAccessEqualityAndPrinting) {
  const FieldId u = make_u();
  const Ex a1 = access(u, 0, {1, -2});
  const Ex a2 = access(u, 0, {1, -2});
  const Ex a3 = access(u, 1, {1, -2});
  EXPECT_TRUE(a1 == a2);
  EXPECT_FALSE(a1 == a3);
  EXPECT_EQ(a1.to_string(), "u[t, x+1, y-2]");
  EXPECT_EQ(a3.to_string(), "u[t+1, x+1, y-2]");
  EXPECT_EQ(access(make_m(), {0, 0}).to_string(), "m[x, y]");
}

TEST(Manip, SubstituteReplacesAllOccurrences) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  const Ex e = x * x + 2 * x + y;
  const Ex got = substitute(e, x, Ex(3));
  EXPECT_TRUE(got == y + 15);
}

TEST(Manip, ContainsFindsDeepSubtrees) {
  const FieldId u = make_u();
  const Ex target = access(u, 1, {0, 0});
  const Ex e = symbol("m") * (access(u, 0, {0, 0}) - 2 * target);
  EXPECT_TRUE(contains(e, target));
  EXPECT_FALSE(contains(e, access(u, -1, {0, 0})));
}

TEST(Manip, CollectLinearSplitsCoefficientAndRest) {
  const Ex x = symbol("x");
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const auto parts = collect_linear(a * x + b, x);
  EXPECT_TRUE(parts.coeff == a);
  EXPECT_TRUE(parts.rest == b);
}

TEST(Manip, CollectLinearRejectsNonlinearTargets) {
  const Ex x = symbol("x");
  EXPECT_THROW(collect_linear(x * x, x), std::domain_error);
  EXPECT_THROW(collect_linear(pow(x, 2) + x, x), std::domain_error);
}

TEST(Manip, SolveLinearEquation) {
  const Ex x = symbol("x");
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  // a*x + b == 0  =>  x == -b/a
  const Ex sol = solve(a * x + b, Ex(0), x);
  EXPECT_TRUE(sol == -b / a);
}

TEST(Manip, SolveWaveEquationUpdate) {
  // The paper's Listing 9: m*u.dt2 - laplace(u) solved for u[t+1].
  // With dt2 = (u[t+1] - 2u[t] + u[t-1]) / dt^2 the update must be
  // u[t+1] = 2u[t] - u[t-1] + dt^2/m * laplace.
  const FieldId u = make_u();
  const Ex dt = symbol("dt");
  const Ex m = access(make_m(), {0, 0});
  const Ex fwd = access(u, 1, {0, 0});
  const Ex now = access(u, 0, {0, 0});
  const Ex bwd = access(u, -1, {0, 0});
  const Ex lap = symbol("LAP");  // Stand-in for the spatial part.
  const Ex dt2 = (fwd - 2 * now + bwd) / (dt * dt);

  const Ex sol = solve(m * dt2 - lap, Ex(0), fwd);
  const Ex expected = 2 * now - bwd + lap * dt * dt / m;
  EXPECT_TRUE(sol == expected) << sol.to_string();
}

TEST(Manip, FieldAccessHarvest) {
  const FieldId u = make_u();
  const Ex e = access(u, 0, {1, 0}) + access(u, 0, {-1, 0}) + symbol("c");
  EXPECT_EQ(field_accesses(e).size(), 2U);
}

TEST(Manip, FlopCounting) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  EXPECT_EQ(count_flops(x + y), 1);
  EXPECT_EQ(count_flops(x + y + symbol("z")), 2);
  EXPECT_EQ(count_flops(x * y + 2 * x), 3);
  EXPECT_EQ(count_flops(pow(x, -1)), 1);
  EXPECT_EQ(count_flops(x), 0);
}

TEST(Cse, ExtractsRepeatedSubexpressions) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  const Ex common = (x + y) * (x + y);
  const auto result = cse({common + x, common + y});
  ASSERT_FALSE(result.temps.empty());
  // The shared (x+y)^2 (and possibly x+y itself) must be extracted, and the
  // rewritten expressions must reference the same final temp.
  const Ex last = symbol(result.temps.back().name);
  EXPECT_TRUE(result.exprs[0] == last + x);
  EXPECT_TRUE(result.exprs[1] == last + y);
}

TEST(Cse, RewritingPreservesValue) {
  // Property: gluing the temps back in reproduces the original expression.
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  const Ex orig = (x + y) * (x + y) + pow(x + y, 3) + x * y + x * y;
  auto result = cse({orig});
  Ex rebuilt = result.exprs[0];
  for (auto it = result.temps.rbegin(); it != result.temps.rend(); ++it) {
    rebuilt = substitute(rebuilt, symbol(it->name), it->value);
  }
  EXPECT_TRUE(rebuilt == orig);
}

TEST(Cse, InvariantExtractionHoistsSpacingFactors) {
  const FieldId u = make_u();
  const Ex h = symbol("h_x");
  const Ex e = access(u, 0, {1, 0}) / (h * h) + access(u, 0, {-1, 0}) / (h * h);
  const auto result = extract_invariants({e});
  ASSERT_EQ(result.temps.size(), 1U);
  EXPECT_TRUE(result.temps[0].value == pow(h, -2));
  EXPECT_FALSE(contains(result.exprs[0], pow(h, -2)));
}

TEST(Cse, InvariantExtractionIgnoresFieldDependentTerms) {
  const FieldId u = make_u();
  const Ex e = access(u, 0, {0, 0}) * access(u, 0, {1, 0});
  const auto result = extract_invariants({e});
  EXPECT_TRUE(result.temps.empty());
  EXPECT_TRUE(result.exprs[0] == e);
}

TEST(Cse, FactorizationGroupsSharedCoefficients) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const Ex c = symbol("c");
  const Ex e = 0.25 * a + 0.25 * b + 0.25 * c;
  const Ex f = factorize(e);
  EXPECT_LT(count_flops(f), count_flops(e));
  // Semantics preserved: substitute values and compare.
  const std::vector<std::pair<Ex, Ex>> vals{{a, Ex(2)}, {b, Ex(3)}, {c, Ex(5)}};
  EXPECT_TRUE(substitute(f, vals) == substitute(e, vals));
}

TEST(Cse, FactorizationPairsTermsDifferingInOneAccess) {
  // 0.5*k*u[x-1] + 0.5*k*u[x+1] -> 0.5*k*(u[x-1] + u[x+1]): one multiply
  // by k for the pair instead of one per tap.
  const FieldId u = make_u();
  const Ex k = symbol("k");
  const Ex lo = access(u, 0, {-1, 0});
  const Ex hi = access(u, 0, {1, 0});
  const Ex f = factorize(0.5 * k * lo + 0.5 * k * hi);
  EXPECT_TRUE(f == make_mul({number(0.5), k, lo + hi})) << f.to_string();
  EXPECT_EQ(count_flops(f), 3);
}

TEST(Cse, FactorizationPairsOnlyTermsWithOneAccess) {
  // A parameter access (m) is part of a coefficient, not a second access:
  // k and m are common to both taps and come out front, and the taps pair.
  const FieldId u = make_u();
  const FieldId m = make_m();
  const Ex k = symbol("k");
  const Ex mm = access(m, {0, 0});
  const Ex ul = access(u, 0, {-1, 0});
  const Ex ur = access(u, 0, {1, 0});
  const Ex lo = k * ul * mm;
  const Ex hi = k * ur * mm;
  EXPECT_TRUE(factorize(0.5 * lo + 0.5 * hi) ==
              make_mul({number(0.5), k, mm, ul + ur}));
  // Terms with no access (symbols only) keep the numeric grouping.
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  EXPECT_TRUE(factorize(0.5 * k * a + 0.5 * k * b) ==
              make_mul({number(0.5), k * a + k * b}));
  // Different cofactors around one access are summed into its
  // coefficient, which is factorized in turn: one multiply on the access.
  const Ex c = symbol("c");
  const Ex centre = access(u, 0, {0, 0});
  EXPECT_TRUE(factorize(0.5 * k * centre + 0.5 * c * centre) ==
              make_mul({number(0.5), k + c, centre}));
}

/// The value of `e` with each pair substituted; every leaf must be bound.
double value_at(const Ex& e, const std::vector<std::pair<Ex, Ex>>& vals) {
  const Ex v = substitute(e, vals);
  EXPECT_TRUE(v.is_number()) << v.to_string();
  return v.is_number() ? v.number() : std::nan("");
}

TEST(Cse, FactorizationCollectsCoefficientsByAccess) {
  // A leapfrog update, 2*u[t] - u[t-1] + k*m*u[t]: the two terms on u[t]
  // collect into one coefficient, so u[t] costs one multiply.
  const FieldId u = make_u();
  const Ex k = symbol("k");
  const Ex mm = access(make_m(), {0, 0});
  const Ex u0 = access(u, 0, {0, 0});
  const Ex um = access(u, -1, {0, 0});
  const Ex e = 2 * u0 - um + k * mm * u0;
  bool pin = false;
  const Ex f = factorize(e, &pin);
  EXPECT_TRUE(f == make_add({make_mul({2 + k * mm, u0}), -um}))
      << f.to_string();
  const std::vector<std::pair<Ex, Ex>> vals{
      {k, Ex(3)}, {mm, Ex(0.25)}, {u0, Ex(-2)}, {um, Ex(9)}};
  EXPECT_DOUBLE_EQ(value_at(f, vals), value_at(e, vals));
  EXPECT_EQ(count_flops(f), 5);
  EXPECT_EQ(count_flops(e), 6);
  // The coefficient of u[t] is a sum: its sign is no one term's.
  EXPECT_TRUE(pin);
}

TEST(Cse, FactorizationPairsAccessesByCollectedCoefficient) {
  // u[x-1] and u[x+1] each collect k/2 + m; the identical coefficients
  // share one multiply by the paired taps. u[t] collects a different one.
  const FieldId u = make_u();
  const Ex k = symbol("k");
  const Ex mm = access(make_m(), {0, 0});
  const Ex ul = access(u, 0, {-1, 0});
  const Ex ur = access(u, 0, {1, 0});
  const Ex u0 = access(u, 0, {0, 0});
  const Ex e = 0.5 * k * ul + 0.5 * k * ur + mm * ul + mm * ur + k * u0;
  const Ex f = factorize(e);
  EXPECT_TRUE(f == make_add({make_mul({0.5 * k + mm, ul + ur}), k * u0}))
      << f.to_string();
  const std::vector<std::pair<Ex, Ex>> vals{
      {k, Ex(3)}, {mm, Ex(0.25)}, {ul, Ex(-2)}, {ur, Ex(9)}, {u0, Ex(4)}};
  EXPECT_DOUBLE_EQ(value_at(f, vals), value_at(e, vals));
  EXPECT_EQ(count_flops(f), 6);
  EXPECT_EQ(count_flops(e), 11);
}

TEST(Cse, FactorizationPullsOutTheCommonFactor) {
  // The 1-D damped wave equation solved for u[t+1]: every term carries
  // r = 1/(m/dt^2 + damp/(2*dt)). It comes out of the whole sum, so each
  // tap costs one multiply: r*(jc*u[t] + h^-2*(u[x-1] + u[x+1]) +
  // jm*u[t-1]).
  const FieldId u = make_u();
  const Ex dt = symbol("dt");
  const Ex h = symbol("h");
  const Ex up = access(u, 1, {0, 0});
  const Ex u0 = access(u, 0, {0, 0});
  const Ex um = access(u, -1, {0, 0});
  const Ex ul = access(u, 0, {-1, 0});
  const Ex ur = access(u, 0, {1, 0});
  const Ex mm = access(make_m(), {0, 0});
  const Ex dd = access(FieldId{2, "damp", 2, false}, {0, 0});
  const Ex e = solve(mm * (up - 2 * u0 + um) / (dt * dt) -
                         (ul - 2 * u0 + ur) / (h * h) +
                         dd * (up - um) / (2 * dt),
                     Ex(0), up);
  bool pin = false;
  const Ex f = factorize(e, &pin);
  const Ex r = pow(mm * pow(dt, -2) + 0.5 * dd * pow(dt, -1), -1);
  const Ex jc = 2 * mm * pow(dt, -2) + (-2) * pow(h, -2);
  const Ex jm = 0.5 * dd * pow(dt, -1) + (-1) * mm * pow(dt, -2);
  const Ex expected = make_mul(
      {r, make_add({make_mul({jc, u0}), make_mul({pow(h, -2), ul + ur}),
                    make_mul({jm, um})})});
  EXPECT_TRUE(f == expected) << f.to_string();
  const std::vector<std::pair<Ex, Ex>> vals{
      {dt, Ex(0.25)}, {h, Ex(2)},    {um, Ex(-3)},  {u0, Ex(5)},
      {ul, Ex(7)},    {ur, Ex(-11)}, {mm, Ex(0.5)}, {dd, Ex(1.5)}};
  const double want = value_at(e, vals);
  EXPECT_NEAR(value_at(f, vals), want, 1e-12 * std::abs(want));
  EXPECT_LT(count_flops(f), count_flops(e));
  // The sign of r now decides the sign of a zero result.
  EXPECT_TRUE(pin);
  // Without a time-varying access the rule does not apply, and nothing
  // asks for the pin.
  pin = false;
  (void)factorize(substitute(e, {{u0, Ex(1)}, {um, Ex(1)}, {ul, Ex(1)},
                                 {ur, Ex(1)}}),
                  &pin);
  EXPECT_FALSE(pin);
}

// --- FD weights -----------------------------------------------------------

TEST(FdWeights, SecondOrderCentralSecondDerivative) {
  const auto st = central_stencil(2, 2);
  ASSERT_EQ(st.offsets, (std::vector<int>{-1, 0, 1}));
  EXPECT_NEAR(st.weights[0], 1.0, 1e-12);
  EXPECT_NEAR(st.weights[1], -2.0, 1e-12);
  EXPECT_NEAR(st.weights[2], 1.0, 1e-12);
}

TEST(FdWeights, FourthOrderCentralFirstDerivative) {
  const auto st = central_stencil(1, 4);
  ASSERT_EQ(st.offsets, (std::vector<int>{-2, -1, 0, 1, 2}));
  const std::vector<double> expected{1.0 / 12, -2.0 / 3, 0.0, 2.0 / 3,
                                     -1.0 / 12};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(st.weights[i], expected[i], 1e-12) << "tap " << i;
  }
}

TEST(FdWeights, SecondOrderStaggeredFirstDerivative) {
  const auto st = staggered_stencil(2, +1);
  ASSERT_EQ(st.offsets, (std::vector<int>{0, 1}));
  EXPECT_NEAR(st.weights[0], -1.0, 1e-12);
  EXPECT_NEAR(st.weights[1], 1.0, 1e-12);
}

class FdWeightsOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(FdWeightsOrderSweep, WeightsSumToZeroAndReproduceMonomials) {
  // Property: an order-p stencil for the m-th derivative must be exact on
  // all monomials x^k, k <= p (derivative at 0 of x^k is k! [k==m]).
  const int so = GetParam();
  for (const int m : {1, 2}) {
    const auto st = central_stencil(m, so);
    for (int k = 0; k <= so; ++k) {
      double sum = 0.0;
      double magnitude = 0.0;  // Cancellation scale for the tolerance.
      for (std::size_t i = 0; i < st.offsets.size(); ++i) {
        const double term = st.weights[i] * std::pow(st.offsets[i], k);
        sum += term;
        magnitude += std::abs(term);
      }
      const double expected = (k == m) ? std::tgamma(k + 1) : 0.0;
      EXPECT_NEAR(sum, expected, 1e-11 * std::max(1.0, magnitude))
          << "so=" << so << " m=" << m << " k=" << k;
    }
  }
}

TEST_P(FdWeightsOrderSweep, StaggeredWeightsReproduceMonomialsAtHalfPoint) {
  const int so = GetParam();
  for (const int side : {+1, -1}) {
    const auto st = staggered_stencil(so, side);
    ASSERT_EQ(st.offsets.size(), static_cast<std::size_t>(so));
    for (int k = 0; k <= so; ++k) {
      double sum = 0.0;
      double magnitude = 0.0;
      for (std::size_t i = 0; i < st.offsets.size(); ++i) {
        const double pos = st.offsets[i] - side * 0.5;
        const double term = st.weights[i] * std::pow(pos, k);
        sum += term;
        magnitude += std::abs(term);
      }
      const double expected = (k == 1) ? 1.0 : 0.0;
      EXPECT_NEAR(sum, expected, 1e-11 * std::max(1.0, magnitude))
          << "so=" << so << " side=" << side << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, FdWeightsOrderSweep,
                         ::testing::Values(2, 4, 8, 12, 16));

TEST(FdWeights, CentralWeightsAreExactlySymmetric) {
  // The +-k taps must carry bit-identical weights (negated for the first
  // derivative) so that factorize() can pair them.
  for (int so = 2; so <= 16; so += 2) {
    const int r = so / 2;
    const auto d1 = central_stencil(1, so);
    const auto d2 = central_stencil(2, so);
    double sum = 0.0;
    double second_moment = 0.0;
    for (int k = 1; k <= r; ++k) {
      const auto lo = static_cast<std::size_t>(r - k);
      const auto hi = static_cast<std::size_t>(r + k);
      EXPECT_EQ(d2.weights[lo], d2.weights[hi]) << "so=" << so << " k=" << k;
      EXPECT_EQ(d1.weights[lo], -d1.weights[hi]) << "so=" << so << " k=" << k;
    }
    EXPECT_EQ(d1.weights[static_cast<std::size_t>(r)], 0.0) << "so=" << so;
    for (std::size_t i = 0; i < d2.offsets.size(); ++i) {
      sum += d2.weights[i];
      second_moment += d2.weights[i] * d2.offsets[i] * d2.offsets[i];
    }
    EXPECT_NEAR(sum, 0.0, 1e-12) << "so=" << so;
    EXPECT_NEAR(second_moment, 2.0, 1e-12) << "so=" << so;
  }
}

TEST(FdWeights, InvalidArguments) {
  EXPECT_THROW(central_stencil(2, 3), std::invalid_argument);
  EXPECT_THROW(central_stencil(3, 4), std::invalid_argument);
  EXPECT_THROW(staggered_stencil(4, 0), std::invalid_argument);
  const std::vector<double> dup{0.0, 0.0};
  EXPECT_THROW(fornberg_weights(1, 0.0, dup), std::invalid_argument);
}

}  // namespace
