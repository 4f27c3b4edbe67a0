// Direct unit tests of the halo-exchange runtime: box geometry, corner
// propagation, multi-field spots, width-limited exchanges, uneven
// decompositions, asynchronous start/wait semantics and statistics —
// exercised through HaloExchange itself rather than through an Operator.
#include <gtest/gtest.h>

#include "grid/function.h"
#include "ir/lower.h"
#include "runtime/halo.h"
#include "smpi/runtime.h"

namespace {

using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::runtime::HaloExchange;
namespace ir = jitfd::ir;

// Fill the owned region of `f` with a rank-unique encoding of the global
// coordinates so any unpacked halo value identifies its source point.
void fill_coded(Function& f, int buf) {
  const Grid& g = f.grid();
  const auto& shape = f.local_shape();
  std::vector<std::int64_t> idx(shape.size(), 0);
  const std::function<void(std::size_t)> rec = [&](std::size_t d) {
    if (d == shape.size()) {
      float code = 0.0F;
      for (std::size_t q = 0; q < shape.size(); ++q) {
        code = 1000.0F * code +
               static_cast<float>(g.local_start(static_cast<int>(q)) +
                                  idx[q]);
      }
      f.at_local(buf, idx) = code + 1.0F;  // +1: zero means "never written".
      return;
    }
    for (idx[d] = 0; idx[d] < shape[d]; ++idx[d]) {
      rec(d + 1);
    }
  };
  rec(0);
}

float expected_code(std::span<const std::int64_t> g) {
  float code = 0.0F;
  for (const std::int64_t v : g) {
    code = 1000.0F * code + static_cast<float>(v);
  }
  return code + 1.0F;
}

ir::SpotInfo one_field_spot(const Function& f, std::vector<int> widths,
                            int time_offset = 0) {
  ir::SpotInfo spot;
  spot.id = 0;
  spot.needs.push_back(
      ir::HaloNeed{f.field_id().id, time_offset, std::move(widths)});
  return spot;
}

class HaloModeGeometry : public ::testing::TestWithParam<ir::MpiMode> {};

TEST_P(HaloModeGeometry, FacesAndCornersCarryNeighbourData) {
  // 2D, 2x2 ranks: after one exchange of width 2, every halo point that
  // maps into the global domain must hold the owner's coded value —
  // including the corner regions (basic gets them via the multi-step
  // sweep, diagonal/full via explicit corner messages).
  const ir::MpiMode mode = GetParam();
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    Function f("f", g, 4);
    fill_coded(f, 0);

    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, mode);
    halo.register_spot(one_field_spot(f, {2, 2}), table);
    if (mode == ir::MpiMode::Full) {
      halo.start(0, 0);
      halo.wait(0);
    } else {
      halo.update(0, 0);
    }

    // Check every point of the width-2 ring around the owned block.
    const auto& shape = f.local_shape();
    for (std::int64_t i = -2; i < shape[0] + 2; ++i) {
      for (std::int64_t j = -2; j < shape[1] + 2; ++j) {
        const bool in_owned =
            i >= 0 && i < shape[0] && j >= 0 && j < shape[1];
        if (in_owned) {
          continue;
        }
        const std::int64_t gi = g.local_start(0) + i;
        const std::int64_t gj = g.local_start(1) + j;
        const std::array<std::int64_t, 2> idx{i, j};
        const float got = f.at_local(0, idx);
        if (gi >= 0 && gi < 8 && gj >= 0 && gj < 8) {
          const std::array<std::int64_t, 2> gg{gi, gj};
          EXPECT_FLOAT_EQ(got, expected_code(gg))
              << "halo (" << i << "," << j << ") mode "
              << ir::to_string(mode);
        } else {
          EXPECT_FLOAT_EQ(got, 0.0F) << "physical-boundary halo must stay 0";
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, HaloModeGeometry,
                         ::testing::Values(ir::MpiMode::Basic,
                                           ir::MpiMode::Diagonal,
                                           ir::MpiMode::Full));

TEST(HaloRuntime, WidthLimitsExchangedRing) {
  // Width 1 with halo 4: only the innermost ghost ring is filled.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    Function f("f", g, 8);  // halo() == 8.
    fill_coded(f, 0);
    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, ir::MpiMode::Diagonal);
    halo.register_spot(one_field_spot(f, {1, 1}), table);
    halo.update(0, 0);

    const auto& shape = f.local_shape();
    // Inner ring filled where it maps into the domain...
    const std::array<std::int64_t, 2> inner{-1, 0};
    const std::int64_t gi = g.local_start(0) - 1;
    if (gi >= 0) {
      EXPECT_NE(f.at_local(0, inner), 0.0F);
    }
    // ...but the second ring stays untouched everywhere.
    const std::array<std::int64_t, 2> outer{-2, 0};
    EXPECT_FLOAT_EQ(f.at_local(0, outer), 0.0F);
    (void)shape;
  });
}

TEST(HaloRuntime, TimeOffsetsSelectModuloBuffer) {
  // Exchanging u@+1 at time=1 must move buffer (1+1)%3 = 2 and leave the
  // other buffers' halos untouched.
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm, {2, 1});
    TimeFunction u("u", g, 2, 2);
    for (int b = 0; b < 3; ++b) {
      fill_coded(u, b);
    }
    ir::FieldTable table;
    table.add(&u);
    HaloExchange halo(g, ir::MpiMode::Basic);
    halo.register_spot(one_field_spot(u, {1, 0}, /*time_offset=*/1), table);
    halo.update(0, /*time=*/1);

    const std::array<std::int64_t, 2> ghost{-1, 3};
    const std::int64_t gi = g.local_start(0) - 1;
    if (gi >= 0) {
      const std::array<std::int64_t, 2> gg{gi, 3};
      EXPECT_FLOAT_EQ(u.at_local(2, ghost), expected_code(gg));
      EXPECT_FLOAT_EQ(u.at_local(0, ghost), 0.0F);
      EXPECT_FLOAT_EQ(u.at_local(1, ghost), 0.0F);
    }
  });
}

TEST(HaloRuntime, MultiFieldSpotMovesEveryField) {
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({6, 6}, {1.0, 1.0}, comm, {2, 1});
    Function a("a", g, 2);
    Function b("b", g, 2);
    fill_coded(a, 0);
    fill_coded(b, 0);
    ir::FieldTable table;
    table.add(&a);
    table.add(&b);
    ir::SpotInfo spot;
    spot.id = 0;
    spot.needs.push_back(ir::HaloNeed{a.field_id().id, 0, {1, 0}});
    spot.needs.push_back(ir::HaloNeed{b.field_id().id, 0, {1, 0}});
    HaloExchange halo(g, ir::MpiMode::Diagonal);
    halo.register_spot(spot, table);
    halo.update(0, 0);
    const std::array<std::int64_t, 2> ghost{-1, 2};
    if (g.local_start(0) > 0) {
      EXPECT_NE(a.at_local(0, ghost), 0.0F);
      EXPECT_NE(b.at_local(0, ghost), 0.0F);
    }
  });
}

TEST(HaloRuntime, UnevenBlocksExchangeConsistently) {
  // 9 points over 2 ranks (5/4): face sizes along the undecomposed
  // dimension are equal, and the exchange must still be exact.
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({9, 7}, {1.0, 1.0}, comm, {2, 1});
    Function f("f", g, 4);
    fill_coded(f, 0);
    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, ir::MpiMode::Basic);
    halo.register_spot(one_field_spot(f, {2, 0}), table);
    halo.update(0, 0);
    for (std::int64_t i : {-2, -1}) {
      const std::int64_t gi = g.local_start(0) + i;
      if (gi < 0) {
        continue;
      }
      for (std::int64_t j = 0; j < 7; ++j) {
        const std::array<std::int64_t, 2> idx{i, j};
        const std::array<std::int64_t, 2> gg{gi, j};
        EXPECT_FLOAT_EQ(f.at_local(0, idx), expected_code(gg));
      }
    }
  });
}

TEST(HaloRuntime, StartWithoutWaitThenWaitCompletes) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    fill_coded(f, 0);
    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, ir::MpiMode::Full);
    halo.register_spot(one_field_spot(f, {1, 1}), table);
    halo.start(0, 0);
    halo.progress();  // Must be safe while in flight.
    halo.progress();
    halo.wait(0);
    halo.wait(0);  // Second wait is a no-op.
    EXPECT_EQ(halo.stats().starts, 1U);
    EXPECT_GE(halo.stats().progress_calls, 2U);
    const std::array<std::int64_t, 2> ghost{
        g.local_start(0) > 0 ? -1 : static_cast<std::int64_t>(4), 0};
    EXPECT_NE(f.at_local(0, ghost), 0.0F);
  });
}

TEST(HaloRuntime, StatsCountMessagesAndBytes) {
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm, {2, 1});
    Function f("f", g, 2);
    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, ir::MpiMode::Basic);
    halo.register_spot(one_field_spot(f, {2, 0}), table);
    halo.update(0, 0);
    // One neighbour, one face of 2x8 floats.
    EXPECT_EQ(halo.stats().messages, 1U);
    EXPECT_EQ(halo.stats().bytes_sent, 2U * 8U * sizeof(float));
    EXPECT_EQ(halo.stats().updates, 1U);
  });
}

TEST(HaloRuntime, SerialGridIsNoOp) {
  const Grid g({8, 8}, {1.0, 1.0});
  Function f("f", g, 2);
  HaloExchange halo(g, ir::MpiMode::Diagonal);
  ir::FieldTable table;
  table.add(&f);
  halo.register_spot(one_field_spot(f, {1, 1}), table);
  halo.update(0, 0);
  halo.start(0, 0);
  halo.wait(0);
  EXPECT_EQ(halo.stats().messages, 0U);
}

class HaloZeroCopy : public ::testing::TestWithParam<ir::MpiMode> {};

TEST_P(HaloZeroCopy, PostFenceMakesEveryDeliveryRendezvous) {
  // With the post fence, every send finds its receive already posted, so
  // the transport copies each payload exactly once (sender's buffer ->
  // posted receive buffer) and the unexpected-message pool is never
  // touched. This is the PR's zero-copy claim, asserted end to end for
  // all three patterns on a 2x2x2 decomposition.
  const ir::MpiMode mode = GetParam();
  smpi::launch({.nranks = 8}, [&](smpi::Communicator& comm) {
    const Grid g({8, 8, 8}, {1.0, 1.0, 1.0}, comm);
    Function f("f", g, 2);
    fill_coded(f, 0);
    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, mode);
    halo.set_post_fence(true);
    halo.register_spot(one_field_spot(f, {1, 1, 1}), table);

    const auto& tc = comm.world().transport();
    const auto pool_before = comm.world().pool().stats();
    std::uint64_t r0 = 0, q0 = 0, c0 = 0;
    comm.barrier();  // Quiesce, then sample a stable baseline.
    if (comm.rank() == 0) {
      r0 = tc.rendezvous.load();
      q0 = tc.queued.load();
      c0 = tc.payload_copies.load();
    }
    comm.barrier();

    constexpr int kSteps = 4;
    for (int step = 0; step < kSteps; ++step) {
      if (mode == ir::MpiMode::Full) {
        halo.start(0, 0);
        halo.wait(0);
      } else {
        halo.update(0, 0);
      }
    }

    // Per-rank bookkeeping: every byte sent was received by symmetry
    // (all 8 ranks are corners of the cube).
    EXPECT_GT(halo.stats().bytes_sent, 0U);
    EXPECT_EQ(halo.stats().bytes_received, halo.stats().bytes_sent);
    EXPECT_EQ(halo.stats().copies_per_message, 1.0);

    comm.barrier();
    if (comm.rank() == 0) {
      const std::uint64_t sent = tc.rendezvous.load() - r0;
      EXPECT_GT(sent, 0U);
      EXPECT_EQ(tc.queued.load() - q0, 0U);          // Nothing unexpected.
      EXPECT_EQ(tc.payload_copies.load() - c0, sent);  // One copy each.
      const auto pool_after = comm.world().pool().stats();
      EXPECT_EQ(pool_after.hits, pool_before.hits);
      EXPECT_EQ(pool_after.misses, pool_before.misses);
      EXPECT_EQ(halo.stats().pool_hits, pool_after.hits);
      EXPECT_EQ(halo.stats().pool_misses, pool_after.misses);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, HaloZeroCopy,
                         ::testing::Values(ir::MpiMode::Basic,
                                           ir::MpiMode::Diagonal,
                                           ir::MpiMode::Full));

TEST(HaloRuntime, TableOneMessageCountsPerCornerRank3D) {
  // 2x2x2: every rank is a corner with 1 face neighbour per axis (3
  // messages under basic) and 7 star neighbours (diagonal/full) — the
  // corner-rank column of the paper's Table I.
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    smpi::launch({.nranks = 8}, [&](smpi::Communicator& comm) {
      const Grid g({8, 8, 8}, {1.0, 1.0, 1.0}, comm);
      Function f("f", g, 2);
      ir::FieldTable table;
      table.add(&f);
      HaloExchange halo(g, mode);
      halo.register_spot(one_field_spot(f, {1, 1, 1}), table);
      if (mode == ir::MpiMode::Full) {
        halo.start(0, 0);
        halo.wait(0);
      } else {
        halo.update(0, 0);
      }
      const std::uint64_t expect = mode == ir::MpiMode::Basic ? 3U : 7U;
      EXPECT_EQ(halo.stats().messages, expect)
          << "mode " << ir::to_string(mode);
      EXPECT_EQ(halo.stats().bytes_received, halo.stats().bytes_sent);
    });
  }
}

TEST(HaloRuntime, RejectsOutOfOrderRegistration) {
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm, {2, 1});
    Function f("f", g, 2);
    ir::FieldTable table;
    table.add(&f);
    HaloExchange halo(g, ir::MpiMode::Basic);
    ir::SpotInfo wrong = one_field_spot(f, {1, 0});
    wrong.id = 3;
    EXPECT_THROW(halo.register_spot(wrong, table), std::logic_error);
  });
}

TEST(HaloRuntime, SetExchangeDepthAcceptsOnlyOne) {
  // Every schedule exchanges once per step: depth 1 is the only legal
  // value, and the lowering info reports exactly that.
  const Grid g({8, 8}, {1.0, 1.0});
  HaloExchange halo(g, ir::MpiMode::Basic);
  EXPECT_NO_THROW(halo.set_exchange_depth(ir::LoweringInfo::exchange_depth));
  EXPECT_NO_THROW(halo.set_exchange_depth(1));
  EXPECT_THROW(halo.set_exchange_depth(2), std::invalid_argument);
  EXPECT_THROW(halo.set_exchange_depth(0), std::invalid_argument);
}

}  // namespace
