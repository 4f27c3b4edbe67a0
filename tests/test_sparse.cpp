// Tests for off-grid sparse operations: multilinear support/weights,
// rank-ownership semantics (paper Figure 3), injection and interpolation
// in serial and distributed settings, and the Ricker wavelet.
#include <gtest/gtest.h>

#include <cmath>

#include "core/operator.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::sparse::Injection;
using jitfd::sparse::Interpolation;
using jitfd::sparse::SparseFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

TEST(Ricker, PeakAndSymmetry) {
  const double f0 = 10.0;
  const double t0 = 0.1;
  EXPECT_NEAR(jitfd::sparse::ricker(t0, f0, t0), 1.0, 1e-12);
  EXPECT_NEAR(jitfd::sparse::ricker(t0 + 0.01, f0, t0),
              jitfd::sparse::ricker(t0 - 0.01, f0, t0), 1e-12);
  // Decays far from the peak.
  EXPECT_LT(std::abs(jitfd::sparse::ricker(t0 + 0.5, f0, t0)), 1e-6);
}

TEST(SparseFunction, SupportWeightsFormPartitionOfUnity) {
  const Grid g({5, 5}, {4.0, 4.0});  // h = 1.
  const SparseFunction pts("p", g,
                           {{0.25, 0.75}, {2.0, 2.0}, {4.0, 4.0}, {3.5, 0.0}});
  for (int p = 0; p < pts.npoints(); ++p) {
    double total = 0.0;
    for (const auto& nw : pts.support(p)) {
      total += nw.weight;
      for (int d = 0; d < 2; ++d) {
        EXPECT_GE(nw.node[static_cast<std::size_t>(d)], 0);
        EXPECT_LT(nw.node[static_cast<std::size_t>(d)], 5);
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "point " << p;
  }
}

TEST(SparseFunction, OnNodePointHasSingleSupport) {
  const Grid g({5, 5}, {4.0, 4.0});
  const SparseFunction pts("p", g, {{2.0, 3.0}});
  const auto sup = pts.support(0);
  ASSERT_EQ(sup.size(), 1U);
  EXPECT_EQ(sup[0].node, (std::vector<std::int64_t>{2, 3}));
  EXPECT_NEAR(sup[0].weight, 1.0, 1e-12);
}

TEST(SparseFunction, RejectsOutOfDomainPoints) {
  const Grid g({5, 5}, {4.0, 4.0});
  EXPECT_THROW(SparseFunction("p", g, {{-0.1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(SparseFunction("p", g, {{0.0, 4.5}}), std::invalid_argument);
}

TEST(SparseFunction, SharedBoundaryPointIsLocalToAllAdjacentRanks) {
  // Paper Figure 3: a point on the cross-point of 4 ranks is local to all
  // four; a clearly interior point is local to exactly one.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {7.0, 7.0}, comm);  // h = 1; ranks own 4x4 blocks.
    // Point C: dead centre, between nodes 3 and 4 in both dims.
    // Point A: inside rank 0's block.
    const SparseFunction pts("p", g, {{3.5, 3.5}, {1.25, 1.5}});
    std::vector<std::int64_t> counts{pts.is_local(0) ? 1 : 0,
                                     pts.is_local(1) ? 1 : 0};
    comm.allreduce(std::span<std::int64_t>(counts), smpi::ReduceOp::Sum);
    EXPECT_EQ(counts[0], 4);  // C shared by every rank.
    EXPECT_EQ(counts[1], 1);  // A owned by one rank.
  });
}

TEST(Injection, DistributedInjectionEqualsSerial) {
  const std::int64_t n = 9;
  auto run = [&](const Grid& g) {
    TimeFunction u("u", g, 2, 1);
    // One point between nodes (mid-cell), one on a rank boundary.
    const SparseFunction src("src", g, {{3.3, 4.7}, {4.0, 4.0}});
    Injection inj(
        u, src, [](std::int64_t t) { return 1.0 + static_cast<double>(t); },
        nullptr, /*time_offset=*/1);
    inj.apply(0);
    inj.apply(1);
    // apply(0) wrote buffer (0+1)%2 = 1; apply(1) wrote buffer 0 — gather
    // the latter: it carries amplitude 2.0 into each of the two points.
    return u.gather(0);
  };
  const Grid serial({n, n}, {8.0, 8.0});
  const auto expected = run(serial);
  // Total injected mass = amplitude at t=1 times number of points
  // (multilinear weights are a partition of unity per point).
  double total = 0.0;
  for (const float v : expected) {
    total += v;
  }
  EXPECT_NEAR(total, 2.0 * 2, 1e-5);

  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {8.0, 8.0}, comm);
    const auto got = run(g);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

TEST(Interpolation, ReadsBackInjectedField) {
  const Grid g({9, 9}, {8.0, 8.0});
  TimeFunction u("u", g, 2, 1);
  const std::vector<std::int64_t> pt{4, 4};
  u.set_global(0, pt, 2.0F);
  // Interpolating exactly at the node reads the nodal value; at mid-cell
  // it averages the cell's corners.
  const SparseFunction rec("rec", g, {{4.0, 4.0}, {4.5, 4.0}});
  Interpolation interp(u, rec, /*time_offset=*/0);
  interp.apply(0);
  const auto data = interp.assemble();
  ASSERT_EQ(data.size(), 1U);
  EXPECT_NEAR(data[0][0], 2.0, 1e-6);
  EXPECT_NEAR(data[0][1], 1.0, 1e-6);  // (2 + 0) / 2.
}

TEST(Interpolation, DistributedAssembleMatchesSerial) {
  const std::int64_t n = 9;
  const int steps = 3;
  auto run = [&](const Grid& g) {
    TimeFunction u("u", g, 2, 1);
    u.init([](std::span<const std::int64_t> gi) {
      return static_cast<float>(gi[0]) + 0.5F * static_cast<float>(gi[1]);
    });
    const SparseFunction rec("rec", g, {{3.7, 2.1}, {4.0, 4.0}, {0.5, 7.5}});
    Interpolation interp(u, rec, 0);
    for (int t = 0; t < steps; ++t) {
      interp.apply(t);
    }
    return interp.assemble();
  };
  const Grid serial({n, n}, {8.0, 8.0});
  const auto expected = run(serial);
  // Linear field: multilinear interpolation is exact.
  EXPECT_NEAR(expected[0][0], 3.7 + 0.5 * 2.1, 1e-5);

  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {8.0, 8.0}, comm);
    const auto got = run(g);
    for (int t = 0; t < steps; ++t) {
      for (std::size_t p = 0; p < 3; ++p) {
        ASSERT_NEAR(got[static_cast<std::size_t>(t)][p],
                    expected[static_cast<std::size_t>(t)][p], 1e-5);
      }
    }
  });
}

TEST(Injection, ScaleCallbackAppliesPerNode) {
  // The DSL's src.inject(expr=src * dt^2 / m) pattern: the per-node scale
  // reads a parameter field at the support node.
  const Grid g({9, 9}, {8.0, 8.0});
  TimeFunction u("u", g, 2, 1);
  Function m("m", g, 2);
  m.init([](std::span<const std::int64_t> gi) {
    return static_cast<float>(1 + gi[0]);  // Varies along x.
  });
  const SparseFunction src("src", g, {{3.5, 4.0}});  // Between x=3 and x=4.
  Injection inj(
      u, src, [](std::int64_t) { return 2.0; },
      [&](int /*p*/, std::span<const std::int64_t> node) {
        return 1.0 / m.get_global_or(0, node, 1.0F);
      },
      1);
  inj.apply(0);
  // Nodes (3,4) and (4,4) get 2.0 * 0.5 / m(node).
  const float at3 = u.get_global_or(1, std::vector<std::int64_t>{3, 4}, -1);
  const float at4 = u.get_global_or(1, std::vector<std::int64_t>{4, 4}, -1);
  EXPECT_NEAR(at3, 2.0 * 0.5 / 4.0, 1e-6);
  EXPECT_NEAR(at4, 2.0 * 0.5 / 5.0, 1e-6);
}

TEST(SparseFunction, ThreeDimensionalSupportAndInjection) {
  const Grid g({5, 5, 5}, {4.0, 4.0, 4.0});
  const SparseFunction pts("p", g, {{1.5, 2.25, 3.75}});
  const auto sup = pts.support(0);
  ASSERT_EQ(sup.size(), 8U);  // 2^3 corners.
  double total = 0.0;
  for (const auto& nw : sup) {
    total += nw.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  TimeFunction u("u", g, 2, 1);
  Injection inj(u, pts, [](std::int64_t) { return 1.0; }, nullptr, 1);
  inj.apply(0);
  double mass = 0.0;
  for (const float v : u.gather(1)) {
    mass += v;
  }
  EXPECT_NEAR(mass, 1.0, 1e-6);
}

TEST(SparseInOperator, SourceDrivenWavePropagatesIdenticallyAcrossModes) {
  // Full pipeline: stencil update + source injection + receiver
  // interpolation inside one Operator, compared across serial and all
  // three distributed modes — the paper's "operations beyond stencils".
  const std::int64_t n = 16;
  const int steps = 20;
  const double dt = 0.05;
  const double f0 = 4.0;

  auto run = [&](const Grid& g, ir::CompileOptions opts,
                 std::vector<std::vector<double>>& rec_out) {
    TimeFunction u("u", g, 2, 2);
    const SparseFunction src("src", g, {{7.3, 7.9}});
    // One receiver inside the source cell (records immediately), one far
    // away (records the propagating front later).
    const SparseFunction rec("rec", g, {{7.0, 7.5}, {11.5, 11.5}});
    Injection inj(
        u, src,
        [&](std::int64_t t) {
          return jitfd::sparse::ricker(static_cast<double>(t) * dt, f0, 0.15);
        },
        nullptr, /*time_offset=*/1);
    Interpolation interp(u, rec, /*time_offset=*/1);
    const sym::Ex c2 = sym::Ex(0.25);  // Wave speed squared.
    Operator op({ir::Eq(u.forward(),
                        sym::solve(u.dt2() - c2 * u.laplace(), sym::Ex(0),
                                   u.forward()))},
                opts, {&inj, &interp});
    op.apply({.time_m = 1, .time_M = steps, .scalars = {{"dt", dt}}});
    rec_out = interp.assemble();
    return u.gather((steps + 1) % 3);
  };

  const Grid serial({n, n}, {15.0, 15.0});
  std::vector<std::vector<double>> rec_ref;
  const auto u_ref = run(serial, {}, rec_ref);
  // The wave reached the near receiver.
  double energy = 0.0;
  for (const auto& row : rec_ref) {
    energy += std::abs(row[0]);
  }
  EXPECT_GT(energy, 1e-6);

  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({n, n}, {15.0, 15.0}, comm);
      ir::CompileOptions opts;
      opts.mode = mode;
      std::vector<std::vector<double>> rec_got;
      const auto u_got = run(g, opts, rec_got);
      if (comm.rank() == 0) {
        for (std::size_t i = 0; i < u_got.size(); ++i) {
          ASSERT_NEAR(u_got[i], u_ref[i], 1e-5)
              << "mode " << ir::to_string(mode) << " at " << i;
        }
      }
      for (std::size_t t = 0; t < rec_got.size(); ++t) {
        for (std::size_t p = 0; p < rec_got[t].size(); ++p) {
          ASSERT_NEAR(rec_got[t][p], rec_ref[t][p], 1e-5);
        }
      }
    });
  }
}

}  // namespace
