// Unit tests for the SMPI substrate: point-to-point semantics, matching
// order, collectives, Cartesian topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "smpi/cart.h"
#include "smpi/pool.h"
#include "smpi/runtime.h"

namespace {

using smpi::CartComm;
using smpi::Communicator;
using smpi::ReduceOp;
using smpi::Request;

TEST(SmpiRuntime, SingleRankRuns) {
  int visits = 0;
  smpi::launch({.nranks = 1}, [&](Communicator& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

TEST(SmpiRuntime, AllRanksRunExactlyOnce) {
  // Observing every rank through one shared atomic only works when ranks
  // share an address space, so pin the thread transport regardless of
  // JITFD_TRANSPORT (test_transport covers the cross-transport variant).
  std::atomic<int> mask{0};
  smpi::launch({.nranks = 4, .transport = smpi::TransportKind::Threads},
               [&](Communicator& comm) {
    mask.fetch_or(1 << comm.rank());
               });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(SmpiRuntime, ExceptionsPropagateAfterJoin) {
  EXPECT_THROW(
      smpi::launch({.nranks = 2},
                [](Communicator& comm) {
                  if (comm.rank() == 1) {
                    throw std::runtime_error("boom");
                  }
                }),
      std::runtime_error);
}

TEST(SmpiP2P, BlockingSendRecvRoundTrip) {
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    const int tag = 7;
    if (comm.rank() == 0) {
      const double payload = 3.25;
      comm.send_n(&payload, 1, 1, tag);
    } else {
      double got = 0.0;
      const auto st = comm.recv_n(&got, 1, 0, tag);
      EXPECT_DOUBLE_EQ(got, 3.25);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, tag);
      EXPECT_EQ(st.bytes, sizeof(double));
    }
  });
}

TEST(SmpiP2P, MessagesAreNonOvertakingPerSourceAndTag) {
  // Two messages with the same (source, tag) must be received in send order.
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 16; ++i) {
        comm.send_n(&i, 1, 1, 3);
      }
    } else {
      for (int i = 0; i < 16; ++i) {
        int got = -1;
        comm.recv_n(&got, 1, 0, 3);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(SmpiP2P, TagSelectsAmongPendingMessages) {
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const int a = 10;
      const int b = 20;
      comm.send_n(&a, 1, 1, 1);
      comm.send_n(&b, 1, 1, 2);
      comm.barrier();
    } else {
      comm.barrier();  // Ensure both messages are pending before receiving.
      int got = 0;
      comm.recv_n(&got, 1, 0, 2);
      EXPECT_EQ(got, 20);
      comm.recv_n(&got, 1, 0, 1);
      EXPECT_EQ(got, 10);
    }
  });
}

TEST(SmpiP2P, AnySourceAndAnyTagMatch) {
  smpi::launch({.nranks = 3}, [](Communicator& comm) {
    if (comm.rank() != 0) {
      const int payload = comm.rank() * 100;
      comm.send_n(&payload, 1, 0, comm.rank());
    } else {
      int seen_sum = 0;
      for (int i = 0; i < 2; ++i) {
        int got = 0;
        const auto st = comm.recv_n(&got, 1, smpi::kAnySource, smpi::kAnyTag);
        EXPECT_EQ(got, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen_sum += got;
      }
      EXPECT_EQ(seen_sum, 300);
    }
  });
}

TEST(SmpiP2P, NonblockingRecvCompletesViaWait) {
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    if (comm.rank() == 1) {
      std::vector<float> buf(128, 0.0F);
      Request rx = comm.irecv(buf.data(), buf.size() * sizeof(float), 0, 5);
      comm.barrier();  // Sender fires after the receive is posted.
      const auto st = rx.wait();
      EXPECT_EQ(st.bytes, buf.size() * sizeof(float));
      EXPECT_FLOAT_EQ(buf[17], 17.0F);
    } else {
      std::vector<float> buf(128);
      std::iota(buf.begin(), buf.end(), 0.0F);
      comm.barrier();
      comm.isend(buf.data(), buf.size() * sizeof(float), 1, 5).wait();
    }
  });
}

TEST(SmpiP2P, TestReportsCompletionWithoutBlocking) {
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    if (comm.rank() == 1) {
      int got = 0;
      Request rx = comm.irecv(&got, sizeof(int), 0, 9);
      EXPECT_FALSE(rx.test());  // Nothing has been sent yet.
      comm.barrier();
      comm.barrier();  // Sender has delivered between the two barriers.
      EXPECT_TRUE(rx.test());
      EXPECT_EQ(got, 42);
    } else {
      comm.barrier();
      const int v = 42;
      comm.send_n(&v, 1, 1, 9);
      comm.barrier();
    }
  });
}

TEST(SmpiP2P, SendToProcNullIsNoOp) {
  smpi::launch({.nranks = 1}, [](Communicator& comm) {
    const int v = 1;
    comm.send_n(&v, 1, smpi::kProcNull, 0);
    int dummy = 7;
    const auto st = comm.recv_n(&dummy, 1, smpi::kProcNull, 0);
    EXPECT_EQ(st.source, smpi::kProcNull);
    EXPECT_EQ(dummy, 7);  // Buffer untouched.
  });
}

TEST(SmpiP2P, SendRecvExchangesBetweenNeighbours) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    const int mine = comm.rank() * 11;
    int theirs = -1;
    comm.sendrecv(&mine, sizeof(int), right, 0, &theirs, sizeof(int), left, 0);
    EXPECT_EQ(theirs, left * 11);
  });
}

TEST(SmpiCollectives, AllreduceSumMinMaxProd) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    const double r = comm.rank() + 1.0;  // 1..4

    std::vector<double> sum{r};
    comm.allreduce(std::span<double>(sum), ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(sum[0], 10.0);

    std::vector<double> mn{r};
    comm.allreduce(std::span<double>(mn), ReduceOp::Min);
    EXPECT_DOUBLE_EQ(mn[0], 1.0);

    std::vector<double> mx{r};
    comm.allreduce(std::span<double>(mx), ReduceOp::Max);
    EXPECT_DOUBLE_EQ(mx[0], 4.0);

    std::vector<double> pr{r};
    comm.allreduce(std::span<double>(pr), ReduceOp::Prod);
    EXPECT_DOUBLE_EQ(pr[0], 24.0);
  });
}

TEST(SmpiCollectives, AllreduceVectorInt64) {
  smpi::launch({.nranks = 3}, [](Communicator& comm) {
    std::vector<std::int64_t> v{comm.rank(), 10 * comm.rank()};
    comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
    EXPECT_EQ(v[0], 3);
    EXPECT_EQ(v[1], 30);
  });
}

TEST(SmpiCollectives, BcastFromNonzeroRoot) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    int value = (comm.rank() == 2) ? 123 : 0;
    comm.bcast(&value, sizeof(int), 2);
    EXPECT_EQ(value, 123);
  });
}

TEST(SmpiCollectives, GatherCollectsInRankOrder) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    const int mine = comm.rank() + 1;
    std::vector<int> all(comm.rank() == 0 ? 4 : 0);
    comm.gather(&mine, sizeof(int), all.data(), 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(all, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(SmpiCollectives, BackToBackCollectivesDoNotCrossMatch) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    for (int round = 0; round < 8; ++round) {
      std::vector<double> v{static_cast<double>(round)};
      comm.allreduce(std::span<double>(v), ReduceOp::Sum);
      EXPECT_DOUBLE_EQ(v[0], 4.0 * round);
    }
  });
}

TEST(SmpiP2P, SimultaneousBidirectionalLargeMessagesDoNotDeadlock) {
  // Buffered-send semantics: both ranks send a large payload before
  // either posts its receive — this must not deadlock (the basic halo
  // pattern relies on it).
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    const int other = 1 - comm.rank();
    std::vector<double> out(1 << 16, comm.rank() + 1.0);
    std::vector<double> in(1 << 16, 0.0);
    comm.send(out.data(), out.size() * sizeof(double), other, 11);
    comm.recv(in.data(), in.size() * sizeof(double), other, 11);
    EXPECT_DOUBLE_EQ(in.front(), other + 1.0);
    EXPECT_DOUBLE_EQ(in.back(), other + 1.0);
  });
}

TEST(SmpiRuntime, WorldCountsDeliveredMessages) {
  smpi::launch({.nranks = 3}, [](Communicator& comm) {
    // Capture the baseline before the barrier: every send below happens
    // after all ranks passed the barrier, hence after every capture.
    // (Capturing after the barrier races with rank 0's sends.)
    const std::uint64_t before = comm.world().message_count();
    comm.barrier();
    if (comm.rank() == 0) {
      const int v = 1;
      comm.send_n(&v, 1, 1, 0);
      comm.send_n(&v, 1, 2, 0);
    } else {
      int v = 0;
      comm.recv_n(&v, 1, 0, 0);
    }
    comm.barrier();
    EXPECT_GE(comm.world().message_count(), before + 2);
  });
}

TEST(SmpiDims, DimsCreateBalancedFactorizations) {
  EXPECT_EQ(smpi::dims_create(8, 3), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(smpi::dims_create(16, 3), (std::vector<int>{4, 2, 2}));
  EXPECT_EQ(smpi::dims_create(12, 2), (std::vector<int>{4, 3}));
  EXPECT_EQ(smpi::dims_create(7, 2), (std::vector<int>{7, 1}));
  EXPECT_EQ(smpi::dims_create(1, 3), (std::vector<int>{1, 1, 1}));
}

TEST(SmpiDims, DimsCreateHonoursFixedEntries) {
  EXPECT_EQ(smpi::dims_create(16, 3, {0, 0, 1}), (std::vector<int>{4, 4, 1}));
  EXPECT_EQ(smpi::dims_create(16, 3, {2, 0, 0}), (std::vector<int>{2, 4, 2}));
  EXPECT_THROW(smpi::dims_create(16, 3, {3, 0, 0}), std::invalid_argument);
}

TEST(SmpiCart, CoordsRoundTrip) {
  smpi::launch({.nranks = 8}, [](Communicator& comm) {
    CartComm cart(comm, {2, 2, 2});
    for (int r = 0; r < cart.size(); ++r) {
      EXPECT_EQ(cart.rank_of(cart.coords(r)), r);
    }
    EXPECT_EQ(cart.rank_of({0, 0, 0}), 0);
    EXPECT_EQ(cart.rank_of({0, 0, 1}), 1);  // Last dim varies fastest.
    EXPECT_EQ(cart.rank_of({1, 0, 0}), 4);
  });
}

TEST(SmpiCart, ShiftAtBoundaryIsProcNull) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    CartComm cart(comm, {4});
    const auto sh = cart.shift(0, 1);
    if (comm.rank() == 0) {
      EXPECT_EQ(sh.source, smpi::kProcNull);
      EXPECT_EQ(sh.dest, 1);
    } else if (comm.rank() == 3) {
      EXPECT_EQ(sh.source, 2);
      EXPECT_EQ(sh.dest, smpi::kProcNull);
    } else {
      EXPECT_EQ(sh.source, comm.rank() - 1);
      EXPECT_EQ(sh.dest, comm.rank() + 1);
    }
  });
}

TEST(SmpiCart, NeighborhoodCountsMatchPaperTableI) {
  // Paper Table I: 6 face messages (basic) and 26 messages (diagonal/full)
  // per interior rank of a 3D decomposition.
  smpi::launch({.nranks = 27}, [](Communicator& comm) {
    CartComm cart(comm, {3, 3, 3});
    if (cart.my_coords() == std::vector<int>{1, 1, 1}) {
      EXPECT_EQ(cart.face_neighborhood().size(), 6U);
      EXPECT_EQ(cart.star_neighborhood().size(), 26U);
    }
    if (cart.my_coords() == std::vector<int>{0, 0, 0}) {
      EXPECT_EQ(cart.face_neighborhood().size(), 3U);
      EXPECT_EQ(cart.star_neighborhood().size(), 7U);
    }
  });
}

TEST(SmpiCart, TopologyValidation) {
  smpi::launch({.nranks = 4}, [](Communicator& comm) {
    EXPECT_THROW(CartComm(comm, {3, 1}), std::invalid_argument);
    EXPECT_THROW(CartComm(comm, {0, 4}), std::invalid_argument);
  });
}

TEST(BufferPool, MissThenHitOnSameBucket) {
  smpi::BufferPool pool;
  smpi::PoolBuffer a = pool.acquire(100);
  EXPECT_EQ(a.size, 100U);
  EXPECT_GE(a.capacity, 100U);
  EXPECT_EQ(pool.stats().misses, 1U);
  EXPECT_EQ(pool.stats().hits, 0U);

  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().pooled_buffers, 1U);

  // Any size that rounds to the same power-of-two bucket is a hit.
  smpi::PoolBuffer b = pool.acquire(128);
  EXPECT_EQ(b.size, 128U);
  EXPECT_EQ(pool.stats().hits, 1U);
  EXPECT_EQ(pool.stats().misses, 1U);
  EXPECT_EQ(pool.stats().pooled_buffers, 0U);
}

TEST(BufferPool, DifferentBucketsDoNotAlias) {
  smpi::BufferPool pool;
  smpi::PoolBuffer small = pool.acquire(64);
  pool.release(std::move(small));
  // A 1 MiB request must not be served by the 64-byte buffer.
  smpi::PoolBuffer big = pool.acquire(1 << 20);
  EXPECT_GE(big.capacity, static_cast<std::size_t>(1) << 20);
  EXPECT_EQ(pool.stats().misses, 2U);
  EXPECT_EQ(pool.stats().hits, 0U);
}

TEST(BufferPool, ZeroByteAcquireRoundTrips) {
  smpi::BufferPool pool;
  smpi::PoolBuffer z = pool.acquire(0);
  EXPECT_EQ(z.size, 0U);
  EXPECT_TRUE(static_cast<bool>(z));  // Storage exists (smallest bucket).
  pool.release(std::move(z));
  smpi::PoolBuffer again = pool.acquire(0);
  EXPECT_EQ(pool.stats().hits, 1U);
  pool.release(std::move(again));
}

TEST(BufferPool, TrimFreesIdleBuffers) {
  smpi::BufferPool pool;
  pool.release(pool.acquire(256));
  pool.release(pool.acquire(4096));
  EXPECT_EQ(pool.stats().pooled_buffers, 2U);
  EXPECT_GT(pool.stats().pooled_bytes, 0U);
  pool.trim();
  EXPECT_EQ(pool.stats().pooled_buffers, 0U);
  EXPECT_EQ(pool.stats().pooled_bytes, 0U);
}

TEST(SmpiTransport, PrePostedReceiveIsSingleCopyRendezvous) {
  smpi::launch({.nranks = 2}, [](Communicator& comm) {
    const auto& tc = comm.world().transport();
    std::vector<float> payload(1024, 2.5F);
    std::vector<float> sink(1024, 0.0F);
    const std::uint64_t r0 = tc.rendezvous.load();
    const std::uint64_t c0 = tc.payload_copies.load();
    const std::uint64_t q0 = tc.queued.load();

    Request rx;
    if (comm.rank() == 1) {
      rx = comm.irecv(sink.data(), sink.size() * sizeof(float), 0, 5);
    }
    // Rank 0 sends only after the receive is posted: the delivery must
    // copy straight into `sink` (rendezvous) without touching the pool.
    comm.barrier();
    if (comm.rank() == 0) {
      comm.send(payload.data(), payload.size() * sizeof(float), 1, 5);
    } else {
      const smpi::Status st = rx.wait();
      EXPECT_EQ(st.bytes, payload.size() * sizeof(float));
      EXPECT_FLOAT_EQ(sink.front(), 2.5F);
      EXPECT_FLOAT_EQ(sink.back(), 2.5F);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(tc.rendezvous.load() - r0, 1U);
      EXPECT_EQ(tc.queued.load() - q0, 0U);
      EXPECT_EQ(tc.payload_copies.load() - c0, 1U);  // Exactly one copy.
    }
  });
}

TEST(SmpiTransport, UnexpectedMessageIsPooledTwoCopy) {
  // Copy counts and pool behaviour are thread-transport properties (the
  // process transport streams through shared-memory rings), so pin the
  // transport: this test must hold regardless of JITFD_TRANSPORT.
  smpi::launch({.nranks = 2, .transport = smpi::TransportKind::Threads},
               [](Communicator& comm) {
    const auto& tc = comm.world().transport();
    const smpi::BufferPool& pool = comm.world().pool();
    const std::uint64_t q0 = tc.queued.load();
    const std::uint64_t c0 = tc.payload_copies.load();
    const std::uint64_t miss0 = pool.stats().misses;
    const std::uint64_t hit0 = pool.stats().hits;

    constexpr int kRounds = 8;
    std::vector<double> buf(512);
    for (int round = 0; round < kRounds; ++round) {
      if (comm.rank() == 0) {
        std::fill(buf.begin(), buf.end(), 1.0 + round);
        comm.send(buf.data(), buf.size() * sizeof(double), 1, round);
      }
      // The receive is posted strictly after the send has been queued.
      comm.barrier();
      if (comm.rank() == 1) {
        comm.recv(buf.data(), buf.size() * sizeof(double), 0, round);
        EXPECT_DOUBLE_EQ(buf.front(), 1.0 + round);
      }
      comm.barrier();
    }
    if (comm.rank() == 0) {
      // Every round was unexpected: two copies per message, and the pool
      // misses exactly once (warmup) then hits — zero steady-state
      // allocations.
      EXPECT_EQ(tc.queued.load() - q0, static_cast<std::uint64_t>(kRounds));
      EXPECT_EQ(tc.payload_copies.load() - c0,
                static_cast<std::uint64_t>(2 * kRounds));
      EXPECT_EQ(pool.stats().misses - miss0, 1U);
      EXPECT_EQ(pool.stats().hits - hit0,
                static_cast<std::uint64_t>(kRounds - 1));
    }
               });
}

}  // namespace
