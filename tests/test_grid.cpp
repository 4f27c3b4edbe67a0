// Tests for the grid layer: block decomposition, global<->local index
// conversion, Grid topologies, Function storage layout (subset-dimension
// Functions included), field initialisation, the separable sponge and the
// distributed NumPy-style data view (paper Listings 1-2 semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/env.h"
#include "core/operator.h"
#include "grid/function.h"
#include "grid/grid.h"
#include "models/acoustic.h"
#include "models/elastic.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::grid::Decomposition;
using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace sym = jitfd::sym;

TEST(Decomposition, EvenSplit) {
  const Decomposition d(12, 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.size_of(p), 3);
    EXPECT_EQ(d.start_of(p), 3 * p);
  }
}

TEST(Decomposition, UnevenSplitFrontLoadsExtras) {
  const Decomposition d(10, 4);  // 3,3,2,2
  EXPECT_EQ(d.size_of(0), 3);
  EXPECT_EQ(d.size_of(1), 3);
  EXPECT_EQ(d.size_of(2), 2);
  EXPECT_EQ(d.size_of(3), 2);
  EXPECT_EQ(d.start_of(2), 6);
  EXPECT_EQ(d.start_of(3), 8);
}

TEST(Decomposition, OwnerAndRoundTripProperty) {
  // Property: every global index maps to exactly one owner, and
  // local_to_global(global_to_local(g)) == g.
  for (const auto& [n, p] : std::initializer_list<std::pair<int, int>>{
           {17, 4}, {64, 8}, {5, 5}, {100, 7}, {3, 1}}) {
    const Decomposition d(n, p);
    std::int64_t covered = 0;
    for (int part = 0; part < p; ++part) {
      covered += d.size_of(part);
    }
    EXPECT_EQ(covered, n);
    for (std::int64_t g = 0; g < n; ++g) {
      const int owner = d.owner_of(g);
      const std::int64_t l = d.global_to_local(owner, g);
      ASSERT_GE(l, 0);
      EXPECT_EQ(d.local_to_global(owner, l), g);
      // No other part owns it.
      for (int part = 0; part < p; ++part) {
        if (part != owner) {
          EXPECT_EQ(d.global_to_local(part, g), -1);
        }
      }
    }
  }
}

TEST(Decomposition, SliceLocalization) {
  const Decomposition d(8, 2);  // parts: [0,4) and [4,8)
  // Global slice [1,7) -> local [1,4) on part 0 and [0,3) on part 1.
  EXPECT_EQ(d.localize_slice(0, 1, 7), (std::pair<std::int64_t, std::int64_t>{1, 4}));
  EXPECT_EQ(d.localize_slice(1, 1, 7), (std::pair<std::int64_t, std::int64_t>{0, 3}));
  // Non-overlapping slice is empty.
  const auto empty = d.localize_slice(1, 0, 3);
  EXPECT_GE(empty.first, empty.second);
}

TEST(Grid, SerialGridBasics) {
  const Grid g({4, 4}, {2.0, 2.0});
  EXPECT_EQ(g.ndims(), 2);
  EXPECT_FALSE(g.distributed());
  EXPECT_DOUBLE_EQ(g.spacing(0), 2.0 / 3.0);
  EXPECT_EQ(g.local_shape(), (std::vector<std::int64_t>{4, 4}));
  EXPECT_EQ(g.points(), 16);
  EXPECT_EQ(g.spacing_symbol(1).to_string(), "h_y");
}

TEST(Grid, RejectsInvalidShapes) {
  EXPECT_THROW(Grid({4}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Grid({1, 4}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Grid({4, 4}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Grid({2, 2, 2, 2}, {1., 1., 1., 1.}), std::invalid_argument);
}

TEST(Grid, DistributedDefaultTopology) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    EXPECT_TRUE(g.distributed());
    EXPECT_EQ(g.topology(), (std::vector<int>{2, 2}));
    EXPECT_EQ(g.local_shape(), (std::vector<std::int64_t>{4, 4}));
    EXPECT_EQ(g.local_start(0), 4 * g.cart()->my_coords()[0]);
  });
}

TEST(Grid, CustomTopologyMatchesPaperFigure2) {
  // Paper Figure 2: 16 ranks decomposed as (4,2,2), (2,2,4), (4,4,1).
  smpi::launch({.nranks = 16}, [](smpi::Communicator& comm) {
    for (const auto& topo :
         {std::vector<int>{4, 2, 2}, {2, 2, 4}, {4, 4, 1}}) {
      const Grid g({16, 16, 16}, {1., 1., 1.}, comm, topo);
      EXPECT_EQ(g.topology(), topo);
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(g.local_shape()[static_cast<std::size_t>(d)],
                  16 / topo[static_cast<std::size_t>(d)]);
      }
    }
  });
}

TEST(Grid, MinLocalSizeIsTheSmallestBlockOnEveryRank) {
  // Tiling's clamp and autotune size tiles by the smallest owned extent,
  // so every rank must read the same value, also where its own block
  // holds one of the front-loaded extra points.
  const Grid serial({23, 21}, {1.0, 1.0});
  EXPECT_EQ(serial.min_local_size(0), 23);
  EXPECT_EQ(serial.min_local_size(1), 21);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid rows({23, 21}, {1.0, 1.0}, comm, {4, 1});  // 6+6+6+5.
    EXPECT_EQ(rows.local_shape()[0], comm.rank() < 3 ? 6 : 5);
    EXPECT_EQ(rows.min_local_size(0), 5);
    EXPECT_EQ(rows.min_local_size(1), 21);
    const Grid both({23, 21}, {1.0, 1.0}, comm, {2, 2});  // 12+11, 11+10.
    EXPECT_EQ(both.min_local_size(0), 11);
    EXPECT_EQ(both.min_local_size(1), 10);
  });
}

TEST(Grid, RejectsTopologyThatLeavesARankEmpty) {
  // 3 rows over 4 process rows: the last rank would own no points.
  try {
    smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
      const Grid g({3, 8}, {1.0, 1.0}, comm, {4, 1});
    });
    ADD_FAILURE() << "a rank with an empty block was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("empty block"), std::string::npos)
        << e.what();
  }
}

TEST(Function, StorageLayoutIncludesHaloAndPadding) {
  const Grid g({8, 6}, {1.0, 1.0});
  const Function f("f", g, /*space_order=*/4, /*padding=*/2);
  EXPECT_EQ(f.halo(), 4);
  EXPECT_EQ(f.lpad(), 6);
  EXPECT_EQ(f.padded_shape(), (std::vector<std::int64_t>{20, 18}));
  EXPECT_EQ(f.buffer_points(), 20 * 18);
  EXPECT_EQ(f.time_buffers(), 1);
}

TEST(Function, HaloAndTimeBuffersFollowOnlyTheFunctionsOwnOrders) {
  // Storage depends on nothing process-global: stale JITFD_EXCHANGE_DEPTH
  // or JITFD_TIME_SLACK settings name no registered variable and change
  // neither the halo nor the number of time buffers.
  ::setenv("JITFD_EXCHANGE_DEPTH", "3", 1);
  ::setenv("JITFD_TIME_SLACK", "2", 1);
  for (const jitfd::env::Var& v : jitfd::env::vars()) {
    EXPECT_STRNE(v.name, "JITFD_EXCHANGE_DEPTH");
    EXPECT_STRNE(v.name, "JITFD_TIME_SLACK");
  }
  const Grid g({8, 8}, {1.0, 1.0});
  for (const int so : {2, 4, 8}) {
    const TimeFunction u("u", g, so, 2);
    EXPECT_EQ(u.halo(), so);
    EXPECT_EQ(u.time_buffers(), 3);
  }
  ::unsetenv("JITFD_EXCHANGE_DEPTH");
  ::unsetenv("JITFD_TIME_SLACK");
}

TEST(Function, LocalAccessReachesHalo) {
  const Grid g({4, 4}, {1.0, 1.0});
  Function f("f", g, 2);
  const std::array<std::int64_t, 2> interior{0, 0};
  const std::array<std::int64_t, 2> halo_pt{-2, 3};
  f.at_local(0, interior) = 1.5F;
  f.at_local(0, halo_pt) = 2.5F;
  EXPECT_FLOAT_EQ(f.at_local(0, interior), 1.5F);
  EXPECT_FLOAT_EQ(f.at_local(0, halo_pt), 2.5F);
}

TEST(Function, RejectsOddSpaceOrder) {
  const Grid g({4, 4}, {1.0, 1.0});
  EXPECT_THROW(Function("f", g, 3), std::invalid_argument);
  EXPECT_THROW(Function("f", g, 0), std::invalid_argument);
}

TEST(Function, FillGlobalBoxMatchesListing2) {
  // The paper's Listing 1, line 14: u.data[1:-1, 1:-1] = 1 on a 4x4 grid
  // over 4 ranks, each owning a 2x2 block (Listing 2 output).
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({4, 4}, {2.0, 2.0}, comm);
    TimeFunction u("u", g, 2, 2);
    const std::array<std::int64_t, 2> lo{1, 1};
    const std::array<std::int64_t, 2> hi{3, 3};
    u.fill_global_box(0, lo, hi, 1.0F);

    // Each rank sees exactly one written point, in the corner adjacent to
    // the grid centre — Listing 2's per-rank pattern.
    int ones = 0;
    for (std::int64_t i = 0; i < 2; ++i) {
      for (std::int64_t j = 0; j < 2; ++j) {
        const std::array<std::int64_t, 2> idx{i, j};
        if (u.at_local(0, idx) == 1.0F) {
          ++ones;
          // The written point's global coords must be inside [1,3)x[1,3).
          const std::int64_t gx = g.local_start(0) + i;
          const std::int64_t gy = g.local_start(1) + j;
          EXPECT_GE(gx, 1);
          EXPECT_LT(gx, 3);
          EXPECT_GE(gy, 1);
          EXPECT_LT(gy, 3);
        }
      }
    }
    EXPECT_EQ(ones, 1);
  });
}

TEST(Function, SetAndGetGlobalRespectOwnership) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    const std::array<std::int64_t, 2> pt{5, 2};
    const bool wrote = f.set_global(0, pt, 9.0F);
    // Exactly one rank owns (5,2).
    std::vector<std::int64_t> count{wrote ? 1 : 0};
    comm.allreduce(std::span<std::int64_t>(count), smpi::ReduceOp::Sum);
    EXPECT_EQ(count[0], 1);
    EXPECT_FLOAT_EQ(f.get_global_or(0, pt, -1.0F), wrote ? 9.0F : -1.0F);
  });
}

TEST(Function, GatherReassemblesGlobalArray) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({6, 6}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    // Initialize with a recognizable global pattern.
    f.init([](std::span<const std::int64_t> gidx) {
      return static_cast<float>(10 * gidx[0] + gidx[1]);
    });
    const std::vector<float> global = f.gather(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(global.size(), 36U);
      for (std::int64_t i = 0; i < 6; ++i) {
        for (std::int64_t j = 0; j < 6; ++j) {
          EXPECT_FLOAT_EQ(global[static_cast<std::size_t>(6 * i + j)],
                          static_cast<float>(10 * i + j));
        }
      }
    } else {
      EXPECT_TRUE(global.empty());
    }
  });
}

TEST(Function, Norm2ReducesAcrossRanks) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({4, 4}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    f.fill(2.0F);
    EXPECT_DOUBLE_EQ(f.norm2(0), 16 * 4.0);
  });
}

TEST(TimeFunction, BuffersAndSymbolicAccessors) {
  const Grid g({4, 4}, {2.0, 2.0});
  const TimeFunction u("u", g, 2, 2);
  EXPECT_EQ(u.time_buffers(), 3);
  EXPECT_EQ(u.forward().to_string(), "u[t+1, x, y]");
  EXPECT_EQ(u.backward().to_string(), "u[t-1, x, y]");
  EXPECT_EQ(u.now().to_string(), "u[t, x, y]");
  EXPECT_THROW(TimeFunction("v", g, 2, 3), std::invalid_argument);
}

TEST(TimeFunction, TimeDerivativesExpandCorrectly) {
  const Grid g({4, 4}, {2.0, 2.0});
  const TimeFunction u("u", g, 2, 2);
  const sym::Ex dt = jitfd::grid::dt_symbol();
  EXPECT_TRUE(sym::expand(u.dt2()) ==
              sym::expand((u.forward() - 2 * u.now() + u.backward()) /
                          (dt * dt)));
  const TimeFunction v("v", g, 2, 1);
  EXPECT_TRUE(sym::expand(v.dt()) ==
              sym::expand((v.forward() - v.now()) / dt));
  EXPECT_THROW(v.dt2(), std::logic_error);
}

TEST(Function, LaplaceMatchesListing11Stencil) {
  // The 2nd-order 2D Laplacian weights of the paper's generated code
  // (Listing 11): -2 centre per dimension, +1 neighbours, scaled by 1/h^2.
  const Grid g({4, 4}, {2.0, 2.0});
  const TimeFunction u("u", g, 2, 1);
  const sym::Ex lap = u.laplace();
  const sym::Ex hx = g.spacing_symbol(0);
  const sym::Ex hy = g.spacing_symbol(1);
  const sym::Ex expected =
      (u.at_shifted(0, {1, 0}) - 2 * u.now() + u.at_shifted(0, {-1, 0})) /
          (hx * hx) +
      (u.at_shifted(0, {0, 1}) - 2 * u.now() + u.at_shifted(0, {0, -1})) /
          (hy * hy);
  EXPECT_TRUE(sym::expand(lap) == sym::expand(expected))
      << lap.to_string();
}

TEST(Function, DerivativeOfProductExpressionShiftsWholeSubtree) {
  // diff must act on composite expressions (the TTI rotated Laplacian
  // pattern): d/dx (c * du/dx) with so=2 references c at x+-1.
  const Grid g({8, 8}, {1.0, 1.0});
  const Function c("c", g, 2);
  const TimeFunction u("u", g, 2, 1);
  const sym::Ex inner = c() * sym::diff(u.now(), 0, 1, 2);
  const sym::Ex outer = sym::diff(inner, 0, 1, 2);
  bool saw_shifted_c = false;
  for (const sym::Ex& a : sym::field_accesses(outer)) {
    if (a.node().field.id == c.field_id().id &&
        a.node().space_offsets[0] != 0) {
      saw_shifted_c = true;
    }
  }
  EXPECT_TRUE(saw_shifted_c) << outer.to_string();
}

TEST(Function, UnevenDistributionStillCoversDomain) {
  // 7x5 grid over 3 ranks in one dimension: sizes 3,2,2.
  smpi::launch({.nranks = 3}, [](smpi::Communicator& comm) {
    const Grid g({7, 5}, {1.0, 1.0}, comm, {3, 1});
    Function f("f", g, 2);
    f.init([](std::span<const std::int64_t> gi) {
      return static_cast<float>(gi[0] + 100 * gi[1]);
    });
    const auto global = f.gather(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(global.size(), 35U);
      EXPECT_FLOAT_EQ(global[5 * 6 + 4], 6.0F + 400.0F);
    }
  });
}

// --- Field initialisation --------------------------------------------------

// A pure function of global coordinates that tells every point apart.
float pattern(std::span<const std::int64_t> g) {
  double v = 0.25;
  for (std::size_t d = 0; d < g.size(); ++d) {
    v = v * 1.7 + std::sin(0.3 * static_cast<double>(g[d]) + 0.1 * d);
  }
  return static_cast<float>(v);
}

// The absorbing-layer profile written point by point, as its definition
// reads: the largest squared distance fraction into the layer over all
// dimensions.
float damp_formula(const Grid& grid, std::span<const std::int64_t> g, int nbl,
                   double peak) {
  double w = 0.0;
  for (std::size_t d = 0; d < g.size(); ++d) {
    const std::int64_t n = grid.shape()[d];
    const std::int64_t dist = std::min<std::int64_t>(g[d], n - 1 - g[d]);
    if (dist < nbl) {
      const double s =
          static_cast<double>(nbl - dist) / static_cast<double>(nbl);
      w = std::max(w, s * s);
    }
  }
  return static_cast<float>(peak * w);
}

// The whole allocation of `f` built point by point: `value` at the clamped
// global coordinates of every padded point, buffers back to back.
std::vector<float> reference_storage(
    const Function& f,
    const std::function<float(std::span<const std::int64_t>)>& value) {
  const Grid& grid = f.grid();
  const auto& padded = f.padded_shape();
  const std::size_t nd = padded.size();
  std::vector<float> out;
  out.reserve(f.raw_storage().size());
  std::vector<std::int64_t> g(nd);
  for (int t = 0; t < f.time_buffers(); ++t) {
    for (std::int64_t p = 0; p < f.buffer_points(); ++p) {
      std::int64_t rest = p;
      for (std::size_t d = nd; d-- > 0;) {
        const std::int64_t raw = rest % padded[d];
        rest /= padded[d];
        g[d] = std::clamp<std::int64_t>(
            grid.local_start(static_cast<int>(d)) + raw - f.lpad(), 0,
            grid.shape()[d] - 1);
      }
      out.push_back(value(g));
    }
  }
  return out;
}

bool same_bytes(const Function& f, const std::vector<float>& expected) {
  const auto raw = f.raw_storage();
  return raw.size() == expected.size() &&
         std::memcmp(raw.data(), expected.data(),
                     expected.size() * sizeof(float)) == 0;
}

// The sponge's 1-D profiles on the grid of `f`, laid out along each
// dimension as `f` is (same space order and padding), filled by init_damp.
std::vector<std::unique_ptr<Function>> damp_profiles(const Function& f,
                                                     int nbl, double peak) {
  std::vector<std::unique_ptr<Function>> profiles;
  std::vector<Function*> raw;
  for (int d = 0; d < f.grid().ndims(); ++d) {
    profiles.push_back(std::make_unique<Function>(
        "damp_" + Grid::dim_name(d), f.grid(), f.space_order(),
        std::initializer_list<int>{d}, f.padding()));
    raw.push_back(profiles.back().get());
  }
  jitfd::models::init_damp(raw, nbl, peak);
  return profiles;
}

// The max of the profiles at every padded point of one buffer of `f`.
std::vector<float> separable_damp(
    const Function& f, const std::vector<std::unique_ptr<Function>>& profiles) {
  const auto& padded = f.padded_shape();
  std::vector<float> out;
  for (std::int64_t p = 0; p < f.buffer_points(); ++p) {
    std::int64_t rest = p;
    float v = 0.0F;
    for (std::size_t d = padded.size(); d-- > 0;) {
      const float w =
          static_cast<const Function&>(*profiles[d])
              .raw_storage()[static_cast<std::size_t>(rest % padded[d])];
      v = d + 1 == padded.size() || w > v ? w : v;
      rest /= padded[d];
    }
    out.push_back(v);
  }
  return out;
}

// init and fill must write exactly the per-point reference, and the max
// of init_damp's profiles must be the per-point sponge at every padded
// point, bit for bit. Returns a description of the first mismatch (empty
// when all match), so forked ranks can report it by throwing.
std::string check_initialisers(Function& f) {
  const Grid& grid = f.grid();
  f.init(pattern);
  if (!same_bytes(f, reference_storage(f, pattern))) {
    return f.name() + ": init differs from the per-point reference";
  }
  f.fill(-3.25F);
  if (!same_bytes(f, reference_storage(f, [](std::span<const std::int64_t>) {
                    return -3.25F;
                  }))) {
    return f.name() + ": fill differs from the per-point reference";
  }
  constexpr int kNbl = 3;
  constexpr double kPeak = 2.5;
  const std::vector<float> got =
      separable_damp(f, damp_profiles(f, kNbl, kPeak));
  const std::vector<float> want = reference_storage(
      f, [&](std::span<const std::int64_t> g) {
        return damp_formula(grid, g, kNbl, kPeak);
      });
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    return f.name() + ": init_damp's profiles differ from the per-point "
                      "reference";
  }
  return {};
}

#ifdef _OPENMP
// Sets the OpenMP team size of this thread's next parallel regions and
// restores the previous one on scope exit.
class OmpTeam {
 public:
  explicit OmpTeam(int threads) : previous_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~OmpTeam() { omp_set_num_threads(previous_); }
  OmpTeam(const OmpTeam&) = delete;
  OmpTeam& operator=(const OmpTeam&) = delete;

 private:
  int previous_;
};
#endif

TEST(Function, FreshStorageIsZeroAndAligned) {
  // Small fields come from the heap, large ones (>= kParallelCopyBytes)
  // from fresh pages; both must read +0.0 everywhere, ghosts included.
  // A freed block of the small field's allocation size is dirtied first,
  // so storage that is not zeroed shows.
  const Grid small({9, 7}, {1.0, 1.0});
  const Grid large({67, 65, 63}, {1.0, 1.0, 1.0});
  {
    const std::vector<float> dirty(21 * 19 + 18, -1.0F);
    ASSERT_EQ(dirty.back(), -1.0F);
  }
  const Function f("f", small, 4, /*padding=*/2);
  ASSERT_EQ(f.raw_storage().size(), 21U * 19U);
  const TimeFunction u("u", large, 4, /*time_order=*/2, /*padding=*/1);
  ASSERT_GE(u.buffer_points() * static_cast<std::int64_t>(sizeof(float)),
            jitfd::grid::kParallelCopyBytes);
  for (const Function* fn : {static_cast<const Function*>(&f),
                             static_cast<const Function*>(&u)}) {
    const auto raw = fn->raw_storage();
    const std::vector<float> zeros(raw.size(), 0.0F);
    EXPECT_EQ(std::memcmp(raw.data(), zeros.data(), raw.size() * sizeof(float)),
              0)
        << fn->name();
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(raw.data()) %
                  jitfd::grid::AlignedAlloc::kAlignment,
              0U)
        << fn->name();
  }
}

TEST(Function, InitialisersMatchPerPointReference) {
  // Odd 1-, 2- and 3-D extents, padding, and a saved TimeFunction whose
  // every buffer must be written.
  const Grid line({17}, {1.0});
  const Grid plane({13, 11}, {1.0, 1.0});
  const Grid box({9, 7, 5}, {1.0, 1.0, 1.0});
  Function a("line", line, 2, /*padding=*/1);
  Function b("plane", plane, 4);
  Function c("box_padded", box, 2, /*padding=*/3);
  TimeFunction d("saved", plane, 2, /*time_order=*/2, /*padding=*/1,
                 /*save=*/5);
  TimeFunction e("cycling", box, 4, /*time_order=*/1);
  for (Function* f : std::initializer_list<Function*>{&a, &b, &c, &d, &e}) {
    EXPECT_EQ(check_initialisers(*f), "");
  }
}

TEST(Function, InitialisersMatchReferenceOnOmpTeamsOf1And4) {
  // Fields of at least kParallelCopyBytes take the threaded row loop; the
  // result must not depend on the team size.
  const Grid grid({67, 65, 63}, {1.0, 1.0, 1.0});
  for (const int threads : {1, 4}) {
#ifdef _OPENMP
    const OmpTeam team(threads);
#endif
    Function f("big" + std::to_string(threads), grid, 4, /*padding=*/1);
    TimeFunction u("big_u" + std::to_string(threads), grid, 2,
                   /*time_order=*/2);
    ASSERT_GE(f.buffer_points() * static_cast<std::int64_t>(sizeof(float)),
              jitfd::grid::kParallelCopyBytes);
    EXPECT_EQ(check_initialisers(f), "");
    EXPECT_EQ(check_initialisers(u), "");
  }
}

TEST(Function, InitCallbackErrorReachesCaller) {
  // A callback that throws inside the threaded row loop must surface as
  // that exception in the caller, not terminate the process.
  const Grid grid({67, 65, 63}, {1.0, 1.0, 1.0});
#ifdef _OPENMP
  const OmpTeam team(4);
#endif
  Function f("f", grid, 4);
  EXPECT_THROW(f.init([](std::span<const std::int64_t> g) -> float {
    if (g[0] == 40) {
      throw std::runtime_error("bad coordinate");
    }
    return 1.0F;
  }),
               std::runtime_error);
}

TEST(Function, InitialisersClampGhostsOnUnevenRanks) {
  // 4 thread ranks over an uneven 2x2x1 split (11 -> 6+5, 10 -> 5+5): ghosts
  // facing a neighbour take the neighbour's coordinates, ghosts past the
  // physical boundary the clamped edge ones.
  smpi::launch({.nranks = 4, .transport = smpi::TransportKind::Threads},
               [](smpi::Communicator& comm) {
                 const Grid g({11, 10, 7}, {1.0, 1.0, 1.0}, comm, {2, 2, 1});
                 Function f("f", g, 4, /*padding=*/1);
                 EXPECT_EQ(check_initialisers(f), "")
                     << "rank " << comm.rank();
               });
}

TEST(Function, RowWiseAccessMatchesPointAccess) {
  // norm2, gather and fill_global_box against sums and reads made point
  // by point through at_local, on an uneven distributed 3-D grid.
  smpi::launch(
      {.nranks = 4, .transport = smpi::TransportKind::Threads},
      [](smpi::Communicator& comm) {
        const Grid g({11, 10, 7}, {1.0, 1.0, 1.0}, comm, {2, 2, 1});
        Function f("f", g, 2, /*padding=*/2);
        f.init(pattern);
        const std::array<std::int64_t, 3> lo{3, 2, 1};
        const std::array<std::int64_t, 3> hi{8, 9, 5};
        f.fill_global_box(0, lo, hi, 7.5F);
        const auto& shape = g.local_shape();
        double sum = 0.0;
        std::array<std::int64_t, 3> i{};
        for (i[0] = 0; i[0] < shape[0]; ++i[0]) {
          for (i[1] = 0; i[1] < shape[1]; ++i[1]) {
            for (i[2] = 0; i[2] < shape[2]; ++i[2]) {
              std::array<std::int64_t, 3> gi{};
              bool in_box = true;
              for (std::size_t d = 0; d < 3; ++d) {
                gi[d] = g.local_start(static_cast<int>(d)) + i[d];
                in_box = in_box && gi[d] >= lo[d] && gi[d] < hi[d];
              }
              const float v = f.at_local(0, i);
              EXPECT_EQ(v, in_box ? 7.5F : pattern(gi));
              const double dv = v;
              sum += dv * dv;
            }
          }
        }
        std::vector<double> total{sum};
        comm.allreduce(std::span<double>(total), smpi::ReduceOp::Sum);
        // Rank-order reduction of the same per-rank row-major sums.
        EXPECT_EQ(f.norm2(0), total[0]);
        const std::vector<float> global = f.gather(0);
        if (comm.rank() == 0) {
          ASSERT_EQ(global.size(), 11U * 10U * 7U);
          std::size_t k = 0;
          std::array<std::int64_t, 3> gi{};
          for (gi[0] = 0; gi[0] < 11; ++gi[0]) {
            for (gi[1] = 0; gi[1] < 10; ++gi[1]) {
              for (gi[2] = 0; gi[2] < 7; ++gi[2]) {
                bool in_box = true;
                for (std::size_t d = 0; d < 3; ++d) {
                  in_box = in_box && gi[d] >= lo[d] && gi[d] < hi[d];
                }
                EXPECT_EQ(global[k++], in_box ? 7.5F : pattern(gi));
              }
            }
          }
        }
      });
}

TEST(Function, SubsetDimensionsHoldTheirSliceOfEachRank) {
  // A profile along y on an uneven 2x2x1 split (11 -> 6+5, 10 -> 5+5):
  // storage is the padded local extent along y alone, and init sees the
  // clamped global y of each padded point, ghosts included.
  smpi::launch(
      {.nranks = 4, .transport = smpi::TransportKind::Threads},
      [](smpi::Communicator& comm) {
        const Grid g({11, 10, 7}, {1.0, 1.0, 1.0}, comm, {2, 2, 1});
        Function f("f_y", g, 4, {1}, /*padding=*/1);
        ASSERT_EQ(f.dimensions().size(), 1U);
        EXPECT_EQ(f.dimensions()[0], 1);
        EXPECT_EQ(f.local_shape(), std::vector<std::int64_t>{g.local_shape()[1]});
        EXPECT_EQ(f.padded_shape(),
                  std::vector<std::int64_t>{g.local_shape()[1] + 10});
        EXPECT_EQ(f.buffer_points(), f.padded_shape()[0]);
        f.init([](std::span<const std::int64_t> p) {
          EXPECT_EQ(p.size(), 1U);
          return static_cast<float>(p[0]);
        });
        for (std::int64_t i = -5; i < g.local_shape()[1] + 5; ++i) {
          const std::array<std::int64_t, 1> idx{i};
          EXPECT_EQ(static_cast<const Function&>(f).at_local(0, idx),
                    static_cast<float>(std::clamp<std::int64_t>(
                        g.local_start(1) + i, 0, 9)))
              << "rank " << comm.rank() << " index " << i;
        }
        const std::vector<float> all = f.gather(0);
        if (comm.rank() == 0) {
          ASSERT_EQ(all.size(), 10U);
          for (std::size_t i = 0; i < all.size(); ++i) {
            EXPECT_EQ(all[i], static_cast<float>(i));
          }
        }
        EXPECT_THROW((void)f.norm2(0), std::logic_error);
      });
  const Grid g({5, 6, 7}, {1.0, 1.0, 1.0});
  EXPECT_THROW(Function("f", g, 2, {2, 1}), std::invalid_argument);
  EXPECT_THROW(Function("f", g, 2, {3}), std::invalid_argument);
  EXPECT_EQ(Function("f", g, 2, {0, 1, 2}).padded_shape(),
            Function("g", g, 2).padded_shape());
}

TEST(Function, SubsetDimensionFieldsAreReadOnlyAtOffsetZero) {
  // A subset-dimension Function is a coefficient: writing it, or reading
  // it at a neighbour, throws naming it.
  const Grid g({8, 9, 10}, {1.0, 1.0, 1.0});
  TimeFunction u("u", g, 2, /*time_order=*/1);
  Function damp_y("damp_y", g, 2, {1});
  const auto lowering_error = [](std::vector<jitfd::ir::Eq> eqs) {
    try {
      jitfd::core::Operator op(std::move(eqs));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string target =
      lowering_error({jitfd::ir::Eq(damp_y(), u.now())});
  EXPECT_NE(target.find("'damp_y'"), std::string::npos) << target;
  EXPECT_NE(target.find("target"), std::string::npos) << target;
  const std::string shifted = lowering_error(
      {jitfd::ir::Eq(u.forward(), u.now() * damp_y.at({1}))});
  EXPECT_NE(shifted.find("'damp_y'"), std::string::npos) << shifted;
  EXPECT_NE(shifted.find("offset 0"), std::string::npos) << shifted;
  EXPECT_EQ(lowering_error({jitfd::ir::Eq(u.forward(), u.now() * damp_y())}),
            "no error");
}

// --- The sponge, end to end --------------------------------------------------
//
// The models read max(damp_x, damp_y, damp_z) where a full damp field
// used to stand. A shot whose wave enters the layer, near the edge where
// the x and y profiles overlap, must leave every buffer bit-equal to the
// same PDE with a full damp Function filled point by point by
// damp_formula.

constexpr std::int64_t kSpongeSteps = 24;

struct SpongeCase {
  const char* name;
  bool elastic;
  int order;
  int nbl;
};

// `eqs` with every read of a subset-dimension Function (a damping
// profile) replaced by a read of the full field `damp`: the max of three
// reads of one field is that read. Empty when nothing reads a profile.
std::vector<jitfd::ir::Eq> with_full_damp(
    const std::vector<jitfd::ir::Eq>& eqs, const Function& damp) {
  std::vector<std::pair<sym::Ex, sym::Ex>> reads;
  for (const jitfd::ir::Eq& eq : eqs) {
    for (const sym::Ex& a : sym::field_accesses(eq.rhs)) {
      if (a.node().field.ndims < damp.grid().ndims()) {
        reads.emplace_back(a, damp());
      }
    }
  }
  if (reads.empty()) {
    return {};
  }
  std::vector<jitfd::ir::Eq> out;
  for (const jitfd::ir::Eq& eq : eqs) {
    out.emplace_back(eq.lhs, sym::substitute(eq.rhs, reads));
  }
  return out;
}

// `eqs` from +0 with a Ricker source at the edge of the layer: every
// buffer of every field it writes, ghosts included, back to back.
std::vector<float> sponge_shot(jitfd::models::WaveModel& model,
                               const std::vector<jitfd::ir::Eq>& eqs,
                               jitfd::ir::MpiMode mode,
                               jitfd::core::Backend backend) {
  const Grid& g = model.grid();
  const double dt = model.critical_dt();
  const jitfd::sparse::SparseFunction src("src", g, {{3.5, 3.25, 8.5}});
  jitfd::sparse::Injection source(
      model.wavefield(), src,
      [dt](std::int64_t t) {
        return jitfd::sparse::ricker(static_cast<double>(t) * dt, 0.3, 3.0);
      },
      nullptr);
  jitfd::ir::CompileOptions opts;
  opts.mode = mode;
  jitfd::core::Operator op(eqs, opts, {&source});
  std::vector<Function*> written;
  for (const jitfd::ir::Eq& eq : eqs) {
    written.push_back(jitfd::grid::lookup_field(eq.write_field().id));
    written.back()->fill(0.0F);
  }
  op.apply({.time_m = 0,
            .time_M = kSpongeSteps,
            .scalars = model.scalars(dt),
            .backend = backend});
  std::vector<float> out;
  for (const Function* f : written) {
    const auto raw = f->raw_storage();
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

// The model's shot against the full-field oracle's; empty when every byte
// matches.
std::string check_sponge(const SpongeCase& c, const Grid& g,
                         jitfd::ir::MpiMode mode,
                         jitfd::core::Backend backend) {
  std::unique_ptr<jitfd::models::WaveModel> model;
  if (c.elastic) {
    model = std::make_unique<jitfd::models::ElasticModel>(
        g, c.order, 2.0, 1.0, 1.0, c.nbl);
  } else {
    model = std::make_unique<jitfd::models::AcousticModel>(g, c.order, 1.5,
                                                           c.nbl);
  }
  // Made after the model's fields, as the full field used to be.
  Function damp("damp", g, c.order);
  damp.init([&](std::span<const std::int64_t> p) {
    return damp_formula(g, p, c.nbl, 1.0);
  });
  const std::vector<jitfd::ir::Eq> eqs = model->equations();
  const std::vector<jitfd::ir::Eq> full = with_full_damp(eqs, damp);
  if (full.empty()) {
    return "the model's equations read no damping profile";
  }
  const std::vector<float> got = sponge_shot(*model, eqs, mode, backend);
  const std::vector<float> want = sponge_shot(*model, full, mode, backend);
  if (got.size() != want.size() ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) != 0) {
    std::size_t at = 0;
    while (at < got.size() &&
           std::memcmp(&got[at], &want[at], sizeof(float)) == 0) {
      ++at;
    }
    return std::string(c.name) + ": differs from the full-field oracle at " +
           "value " + std::to_string(at);
  }
  return {};
}

class Sponge : public ::testing::TestWithParam<SpongeCase> {};

TEST_P(Sponge, SerialJitAndInterpreterMatchTheFullField) {
  const Grid g({17, 15, 16}, {16.0, 14.0, 15.0});
  for (const auto backend :
       {jitfd::core::Backend::Jit, jitfd::core::Backend::Interpret}) {
    EXPECT_EQ(check_sponge(GetParam(), g, jitfd::ir::MpiMode::None, backend),
              "")
        << jitfd::core::to_string(backend);
  }
}

TEST_P(Sponge, TwoUnevenRanksMatchTheFullField) {
  // 17 -> 9 + 8 along x; every pattern on both transports. Forked ranks
  // report a mismatch by throwing.
  for (const auto mode : {jitfd::ir::MpiMode::Basic,
                          jitfd::ir::MpiMode::Diagonal,
                          jitfd::ir::MpiMode::Full}) {
    for (const auto transport :
         {smpi::TransportKind::Threads, smpi::TransportKind::ProcessShm}) {
      const SpongeCase c = GetParam();
      EXPECT_NO_THROW(smpi::launch(
          {.nranks = 2, .transport = transport},
          [&](smpi::Communicator& comm) {
            const Grid g({17, 15, 16}, {16.0, 14.0, 15.0}, comm, {2, 1, 1});
            const std::string mismatch =
                check_sponge(c, g, mode, jitfd::core::Backend::Jit);
            if (!mismatch.empty()) {
              throw std::runtime_error("rank " + std::to_string(comm.rank()) +
                                       ": " + mismatch);
            }
          }))
          << jitfd::ir::to_string(mode) << " "
          << (transport == smpi::TransportKind::Threads ? "threads"
                                                        : "process_shm");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, Sponge,
    ::testing::Values(SpongeCase{"AcousticSo4", false, 4, 4},
                      SpongeCase{"AcousticSo8", false, 8, 6},
                      SpongeCase{"ElasticSo4", true, 4, 5}),
    [](const auto& p) { return std::string(p.param.name); });

TEST(Function, ParallelFillBeforeProcessLaunch) {
  // The parent fills a >= 1 MiB field on a 4-thread OpenMP team, then
  // forks ranks that construct and fill their own. A forked child keeps
  // libgomp's record of that team but not its threads, so a child whose
  // next parallel region asked for them would hang; process ranks run
  // 1-thread teams. Forked ranks report failures by throwing.
  const Grid serial({67, 65, 63}, {1.0, 1.0, 1.0});
  Function parent("parent", serial, 4);
  {
#ifdef _OPENMP
    const OmpTeam team(4);
#endif
    parent.fill(1.5F);
    smpi::launch(
        {.nranks = 2, .transport = smpi::TransportKind::ProcessShm},
        [](smpi::Communicator& comm) {
          const Grid g({96, 64, 64}, {1.0, 1.0, 1.0}, comm, {2, 1, 1});
          Function f("f", g, 4);
          if (f.buffer_points() * static_cast<std::int64_t>(sizeof(float)) <
              jitfd::grid::kParallelCopyBytes) {
            throw std::logic_error("rank field below the threaded size");
          }
          const std::string mismatch = check_initialisers(f);
          if (!mismatch.empty()) {
            throw std::runtime_error("rank " + std::to_string(comm.rank()) +
                                     ": " + mismatch);
          }
        });
  }
  EXPECT_TRUE(same_bytes(parent, reference_storage(
                                     parent, [](std::span<const std::int64_t>) {
                                       return 1.5F;
                                     })));
}

}  // namespace
