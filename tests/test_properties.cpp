// Randomized property tests.
//
// Expression system: canonical construction must be deterministic and
// value-preserving under every flop-reducing transformation (expand,
// factorize, CSE round trip) — checked by evaluating random expression
// trees at random bindings. Substrate: a deterministic message storm
// must deliver every payload exactly once in per-pair order.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "grid/function.h"
#include "runtime/halo.h"
#include "smpi/runtime.h"
#include "symbolic/cse.h"
#include "symbolic/expr.h"
#include "symbolic/manip.h"

namespace {

namespace sym = jitfd::sym;
using sym::Ex;

// Field-access leaves: four taps of a wavefield u, then a parameter
// access m.
const std::vector<Ex>& access_leaves() {
  static const sym::FieldId u{0, "u", 1, true};
  static const sym::FieldId m{1, "m", 1, false};
  static const std::vector<Ex> leaves{
      sym::access(u, 0, {-1}), sym::access(u, 0, {0}), sym::access(u, 0, {1}),
      sym::access(u, -1, {0}), sym::access(m, {0})};
  return leaves;
}

Ex random_linear_sum(std::mt19937& rng, int depth);

// Deterministic random expression over numbers, symbols a..d and the
// access leaves with bounded depth. With `wave` false it reads no
// wavefield tap, as a coefficient of one does.
Ex random_expr(std::mt19937& rng, int depth, bool wave = true) {
  std::uniform_int_distribution<int> kind(0, depth <= 0 ? 2 : (wave ? 7 : 6));
  static const char* kNames[] = {"a", "b", "c", "d"};
  switch (kind(rng)) {
    case 0: {
      std::uniform_int_distribution<int> v(-4, 4);
      return Ex(v(rng));
    }
    case 1: {
      std::uniform_int_distribution<int> s(0, 3);
      return sym::symbol(kNames[s(rng)]);
    }
    case 2: {
      const std::size_t last = access_leaves().size() - 1;
      std::uniform_int_distribution<std::size_t> l(wave ? 0 : last, last);
      return access_leaves()[l(rng)];
    }
    case 3:
      return random_expr(rng, depth - 1, wave) +
             random_expr(rng, depth - 1, wave);
    case 4:
      return random_expr(rng, depth - 1, wave) -
             random_expr(rng, depth - 1, wave);
    case 5:
      return random_expr(rng, depth - 1, wave) *
             random_expr(rng, depth - 1, wave);
    case 6: {
      std::uniform_int_distribution<int> e(1, 3);
      return pow(random_expr(rng, depth - 1, wave), e(rng));
    }
    default:
      return random_linear_sum(rng, depth);
  }
}

// A sum linear in wavefield taps, the shape solve() produces: terms
// f*k*u with one factor f shared by all, and cofactors k and taps u drawn
// from small pools so that both repeat.
Ex random_linear_sum(std::mt19937& rng, int depth) {
  const Ex shared = random_expr(rng, depth - 1, false);
  const Ex cofactors[] = {random_expr(rng, depth - 1, false),
                          random_expr(rng, depth - 1, false)};
  std::uniform_int_distribution<int> nterms(2, 5);
  std::uniform_int_distribution<int> cofactor(0, 1);
  std::uniform_int_distribution<std::size_t> tap(0, 3);
  std::vector<Ex> terms;
  for (int i = nterms(rng); i > 0; --i) {
    terms.push_back(shared * cofactors[cofactor(rng)] *
                    access_leaves()[tap(rng)]);
  }
  return sym::make_add(std::move(terms));
}

// Reference evaluator (double precision, no simplification assumptions).
double eval(const Ex& e, const std::map<std::string, double>& env) {
  const sym::ExprNode& n = e.node();
  switch (n.kind) {
    case sym::Kind::Number:
      return n.value;
    case sym::Kind::Symbol:
      return env.at(n.name);
    case sym::Kind::FieldAccess:
      return env.at(e.to_string());
    case sym::Kind::Add: {
      double acc = 0.0;
      for (const Ex& a : n.args) {
        acc += eval(a, env);
      }
      return acc;
    }
    case sym::Kind::Mul: {
      double acc = 1.0;
      for (const Ex& a : n.args) {
        acc *= eval(a, env);
      }
      return acc;
    }
    case sym::Kind::Pow:
      return std::pow(eval(n.args[0], env), eval(n.args[1], env));
    case sym::Kind::Call: {
      const double a = eval(n.args[0], env);
      if (n.name == "sqrt") return std::sqrt(a);
      if (n.name == "sin") return std::sin(a);
      if (n.name == "cos") return std::cos(a);
      if (n.name == "exp") return std::exp(a);
      return std::fabs(a);
    }
    default:
      ADD_FAILURE() << "unexpected node kind";
      return 0.0;
  }
}

// Bindings chosen to avoid poles of 1/x terms; accesses bind by their
// printed form.
std::map<std::string, double> make_env() {
  std::map<std::string, double> env{
      {"a", 1.37}, {"b", -0.82}, {"c", 2.05}, {"d", 0.51}};
  const double values[] = {0.93, -1.21, 0.64, 1.58, 0.77};
  for (std::size_t i = 0; i < access_leaves().size(); ++i) {
    env[access_leaves()[i].to_string()] = values[i];
  }
  return env;
}
const std::map<std::string, double> kEnv = make_env();

constexpr double kTol = 1e-6;

double rel_tol(double reference) {
  return kTol * std::max(1.0, std::abs(reference));
}

TEST(ExprProperties, TransformationsPreserveValue) {
  std::mt19937 rng(20260704);
  int pinned = 0;  // Trees where collection by access moved a zero's sign.
  for (int trial = 0; trial < 200; ++trial) {
    const Ex e = random_expr(rng, 4);
    const double reference = eval(e, kEnv);
    if (!std::isfinite(reference) || std::abs(reference) > 1e9) {
      continue;  // Overflowing trees are not interesting here.
    }
    EXPECT_NEAR(eval(sym::expand(e), kEnv), reference, rel_tol(reference))
        << "expand broke: " << e.to_string();
    bool pin = false;
    EXPECT_NEAR(eval(sym::factorize(e, &pin), kEnv), reference,
                rel_tol(reference))
        << "factorize broke: " << e.to_string();
    pinned += pin ? 1 : 0;

    // CSE round trip: substitute the temps back in.
    auto result = sym::cse({e});
    Ex rebuilt = result.exprs[0];
    for (auto it = result.temps.rbegin(); it != result.temps.rend(); ++it) {
      rebuilt = sym::substitute(rebuilt, sym::symbol(it->name), it->value);
    }
    EXPECT_NEAR(eval(rebuilt, kEnv), reference, rel_tol(reference))
        << "cse broke: " << e.to_string();

    // Invariant extraction round trip.
    auto inv = sym::extract_invariants({e});
    Ex rebuilt2 = inv.exprs[0];
    for (auto it = inv.temps.rbegin(); it != inv.temps.rend(); ++it) {
      rebuilt2 = sym::substitute(rebuilt2, sym::symbol(it->name), it->value);
    }
    EXPECT_NEAR(eval(rebuilt2, kEnv), reference, rel_tol(reference))
        << "invariants broke: " << e.to_string();
  }
  // The trees reach collection by access (summed coefficients, common
  // factors), not only the grouping by numeric coefficient.
  EXPECT_GT(pinned, 0);
}

TEST(ExprProperties, CanonicalFormIsOrderIndependent) {
  // Building the same sum/product from shuffled operand orders must give
  // structurally identical (hash-equal, print-equal) expressions.
  std::mt19937 rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Ex> terms;
    for (int i = 0; i < 6; ++i) {
      terms.push_back(random_expr(rng, 2));
    }
    std::vector<Ex> shuffled = terms;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    const Ex sum1 = sym::make_add(terms);
    const Ex sum2 = sym::make_add(shuffled);
    EXPECT_TRUE(sum1 == sum2) << sum1.to_string() << " vs "
                              << sum2.to_string();
    EXPECT_EQ(sum1.hash(), sum2.hash());
    const Ex mul1 = sym::make_mul(terms);
    const Ex mul2 = sym::make_mul(shuffled);
    EXPECT_TRUE(mul1 == mul2);
  }
}

TEST(ExprProperties, FlopReductionNeverIncreasesCost) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const Ex e = random_expr(rng, 4);
    EXPECT_LE(sym::count_flops(sym::factorize(e)), sym::count_flops(e))
        << e.to_string();
    auto result = sym::cse({e});
    int total = sym::count_flops(result.exprs[0]);
    for (const auto& t : result.temps) {
      total += sym::count_flops(t.value);
    }
    EXPECT_LE(total, sym::count_flops(e)) << e.to_string();
  }
}

TEST(PackUnpackProperties, RoundTripOverRandomStridedBoxes) {
  // pack_box followed by unpack_box over an arbitrary axis-aligned box of
  // the padded storage must (a) pack exactly the box elements in
  // row-major order, (b) restore them bit-exactly, (c) write nothing
  // outside the box, and (d) produce identical results on the serial and
  // threaded paths. Boxes are randomized over 1/2/3-D geometries and
  // forced through the degenerate shapes the halo patterns produce:
  // 1-wide rows (strided remainder faces) and full faces.
  using jitfd::grid::Function;
  using jitfd::grid::Grid;
  using Box = jitfd::runtime::HaloExchange::Box;

  std::mt19937 rng(20260806);
  for (int trial = 0; trial < 150; ++trial) {
    const int nd = 1 + trial % 3;
    std::vector<std::int64_t> shape;
    std::vector<double> spacing;
    std::uniform_int_distribution<int> extent(4, 12);
    for (int d = 0; d < nd; ++d) {
      shape.push_back(extent(rng));
      spacing.push_back(1.0);
    }
    const Grid g(shape, spacing);
    Function f("f", g, 4);
    const auto& P = f.padded_shape();
    std::int64_t total = 1;
    for (const std::int64_t p : P) {
      total *= p;
    }
    // Unique value per cell, ghosts included.
    float* base = f.buffer(0);
    for (std::int64_t i = 0; i < total; ++i) {
      base[i] = static_cast<float>(i) + 1.0F;
    }

    // Random box in raw (ghost-inclusive) coordinates; every few trials
    // force a degenerate shape.
    Box box;
    box.lo.resize(static_cast<std::size_t>(nd));
    box.hi.resize(static_cast<std::size_t>(nd));
    for (int d = 0; d < nd; ++d) {
      const auto ud = static_cast<std::size_t>(d);
      if (trial % 5 == 3) {  // Full face along every dimension.
        box.lo[ud] = 0;
        box.hi[ud] = P[ud];
      } else if (trial % 5 == 4) {  // 1-wide in every dimension.
        std::uniform_int_distribution<std::int64_t> at(0, P[ud] - 1);
        box.lo[ud] = at(rng);
        box.hi[ud] = box.lo[ud] + 1;
      } else {
        std::uniform_int_distribution<std::int64_t> lo(0, P[ud] - 1);
        box.lo[ud] = lo(rng);
        std::uniform_int_distribution<std::int64_t> hi(box.lo[ud] + 1, P[ud]);
        box.hi[ud] = hi(rng);
      }
    }

    // Reference: row-major enumeration of the box.
    std::vector<float> expected;
    expected.reserve(static_cast<std::size_t>(box.count()));
    std::vector<std::int64_t> idx(box.lo.begin(), box.lo.end());
    std::vector<std::int64_t> strides(static_cast<std::size_t>(nd), 1);
    for (int d = nd - 2; d >= 0; --d) {
      strides[static_cast<std::size_t>(d)] =
          strides[static_cast<std::size_t>(d + 1)] *
          P[static_cast<std::size_t>(d + 1)];
    }
    while (true) {
      std::int64_t off = 0;
      for (int d = 0; d < nd; ++d) {
        off += idx[static_cast<std::size_t>(d)] *
               strides[static_cast<std::size_t>(d)];
      }
      expected.push_back(base[off]);
      int d = nd - 1;
      for (; d >= 0; --d) {
        const auto ud = static_cast<std::size_t>(d);
        if (++idx[ud] < box.hi[ud]) {
          break;
        }
        idx[ud] = box.lo[ud];
      }
      if (d < 0) {
        break;
      }
    }

    // The plan holds one row per innermost run of the box (on a 128^3
    // width-4 face: 512 rows of 128 floats, or 16384 rows of 4).
    const jitfd::runtime::RowPlan plan = jitfd::runtime::make_row_plan(f, box);
    EXPECT_EQ(plan.row, box.hi.back() - box.lo.back()) << "trial " << trial;
    EXPECT_EQ(plan.total(), box.count()) << "trial " << trial;

    std::vector<float> packed(expected.size(), -1.0F);
    jitfd::runtime::pack_box(f, 0, box, packed.data(), /*parallel=*/false);
    ASSERT_EQ(packed, expected) << "trial " << trial;

    std::vector<float> packed_par(expected.size(), -2.0F);
    jitfd::runtime::pack_box(f, 0, box, packed_par.data(), /*parallel=*/true);
    ASSERT_EQ(packed_par, expected) << "threaded pack, trial " << trial;

    // Unpack into a scrubbed copy: the box is restored, the rest is
    // untouched.
    std::vector<float> original(base, base + total);
    for (std::int64_t i = 0; i < total; ++i) {
      base[i] = -7.0F;
    }
    jitfd::runtime::unpack_box(f, 0, box, packed.data(), trial % 2 == 1);
    std::size_t inside = 0;
    std::vector<std::int64_t> probe(static_cast<std::size_t>(nd), 0);
    for (std::int64_t i = 0; i < total; ++i) {
      std::int64_t rem = i;
      bool in_box = true;
      for (int d = 0; d < nd; ++d) {
        const auto ud = static_cast<std::size_t>(d);
        probe[ud] = rem / strides[ud];
        rem %= strides[ud];
        in_box = in_box && probe[ud] >= box.lo[ud] && probe[ud] < box.hi[ud];
      }
      if (in_box) {
        ASSERT_EQ(base[i], original[i]) << "trial " << trial << " cell " << i;
        ++inside;
      } else {
        ASSERT_EQ(base[i], -7.0F)
            << "unpack wrote outside the box, trial " << trial;
      }
    }
    ASSERT_EQ(inside, expected.size());
  }
}

TEST(SmpiProperties, MessageStormDeliversExactlyOnceInOrder) {
  // Every rank sends `kMsgs` tagged payloads to every other rank; the
  // receiver must observe each (source, tag) stream complete and in
  // order. Deterministic per-pair payload encoding makes loss, drop,
  // duplication or reordering detectable.
  constexpr int kRanks = 4;
  constexpr int kMsgs = 50;
  smpi::launch({.nranks = kRanks}, [](smpi::Communicator& comm) {
    const int me = comm.rank();
    for (int dst = 0; dst < kRanks; ++dst) {
      if (dst == me) {
        continue;
      }
      for (int k = 0; k < kMsgs; ++k) {
        const std::int64_t payload = 1000000LL * me + 1000LL * dst + k;
        comm.send_n(&payload, 1, dst, /*tag=*/k % 5);
      }
    }
    // Receive: per (source, tag) streams must be ordered by k.
    std::map<std::pair<int, int>, int> next_k;
    for (int i = 0; i < (kRanks - 1) * kMsgs; ++i) {
      std::int64_t payload = -1;
      const auto st = comm.recv_n(&payload, 1, smpi::kAnySource,
                                  smpi::kAnyTag);
      const int src = static_cast<int>(payload / 1000000LL);
      const int dst = static_cast<int>((payload / 1000LL) % 1000LL);
      const int k = static_cast<int>(payload % 1000LL);
      ASSERT_EQ(src, st.source);
      ASSERT_EQ(dst, me);
      ASSERT_EQ(k % 5, st.tag);
      // Within one (source, tag) stream the k values sent were
      // tag, tag+5, tag+10, ... and must arrive in that order.
      auto& seen = next_k[{st.source, st.tag}];
      ASSERT_EQ(k, st.tag + 5 * seen)
          << "stream (" << st.source << "," << st.tag << ")";
      ++seen;
    }
    comm.barrier();
  });
}

TEST(SmpiProperties, ConcurrentCollectivesStayCoherent) {
  smpi::launch({.nranks = 6}, [](smpi::Communicator& comm) {
    for (int round = 0; round < 25; ++round) {
      std::vector<double> v{static_cast<double>(comm.rank() + round)};
      comm.allreduce(std::span<double>(v), smpi::ReduceOp::Sum);
      const double expected = 15.0 + 6.0 * round;  // sum(0..5) + 6*round.
      ASSERT_DOUBLE_EQ(v[0], expected);
      int token = comm.rank() == round % 6 ? round : -1;
      comm.bcast(&token, sizeof(int), round % 6);
      ASSERT_EQ(token, round);
    }
  });
}

}  // namespace
