// Cross-transport contract tests: the process_shm transport must be
// observably identical to the threads transport through the public
// Communicator surface — p2p matching, Request wait/test, collectives,
// the error contract (first failure by rank order, rank 0 with its
// original type), trace aggregation, and bitwise solver results.
//
// gtest caveat under process_shm: EXPECT/ASSERT failures inside forked
// rank processes are invisible to the parent's test result. Every check
// here therefore either runs on rank 0 (the launching process) or is
// funneled to rank 0 through a collective first.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "obs/trace.h"
#include "smpi/cart.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

namespace {

using jitfd::grid::Grid;
using jitfd::models::AcousticModel;
using jitfd::models::ElasticModel;
using jitfd::models::TtiModel;
using jitfd::sparse::Injection;
using jitfd::sparse::SparseFunction;
using smpi::CartComm;
using smpi::Communicator;
using smpi::RankError;
using smpi::ReduceOp;
using smpi::Request;
using smpi::TransportKind;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;

/// Scoped environment override (process-wide; tests run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    old_ = had_ ? old : "";
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_;
  std::string old_;
};

// --- Transport selection ----------------------------------------------------

TEST(TransportSelect, FromStringIsStrict) {
  EXPECT_EQ(smpi::transport_from_string("threads"), TransportKind::Threads);
  EXPECT_EQ(smpi::transport_from_string("process_shm"),
            TransportKind::ProcessShm);
  try {
    smpi::transport_from_string("pthread");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    // The error must name the valid values, not just reject.
    EXPECT_NE(std::string(ex.what()).find("threads"), std::string::npos);
    EXPECT_NE(std::string(ex.what()).find("process_shm"), std::string::npos);
  }
}

TEST(TransportSelect, DefaultFollowsEnvStrictly) {
  {
    const ScopedEnv env("JITFD_TRANSPORT", "process_shm");
    EXPECT_EQ(smpi::default_transport(), TransportKind::ProcessShm);
  }
  {
    const ScopedEnv env("JITFD_TRANSPORT", "threads");
    EXPECT_EQ(smpi::default_transport(), TransportKind::Threads);
  }
  {
    const ScopedEnv env("JITFD_TRANSPORT", "forks");
    EXPECT_THROW(smpi::default_transport(), std::invalid_argument);
  }
  // A set JITFD_* name the registry does not declare (here ones whose
  // feature is gone) is refused by name, not silently ignored.
  for (const char* name :
       {"JITFD_METRICS", "JITFD_DELAY_RANK", "JITFD_DELAY_US",
        "JITFD_REBALANCE_THRESHOLD"}) {
    const ScopedEnv stale(name, "1");
    try {
      smpi::default_transport();
      ADD_FAILURE() << name << ": expected invalid_argument";
    } catch (const std::invalid_argument& ex) {
      EXPECT_NE(std::string(ex.what()).find(name), std::string::npos)
          << ex.what();
    }
  }
}

TEST(TransportSelect, ExplicitOptionBeatsEnv) {
  const ScopedEnv env("JITFD_TRANSPORT", "process_shm");
  // Pinning Threads must ignore the env var: verify via a shared-memory
  // side effect that only rank threads (same address space) can produce.
  int visits = 0;
  smpi::launch({.nranks = 3, .transport = TransportKind::Threads},
               [&](Communicator& comm) {
                 (void)comm;
                 __atomic_fetch_add(&visits, 1, __ATOMIC_RELAXED);
               });
  EXPECT_EQ(visits, 3);
}

// --- Cross-transport parity (parameterized) ---------------------------------

class TransportParity : public ::testing::TestWithParam<TransportKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportParity,
    ::testing::Values(TransportKind::Threads, TransportKind::ProcessShm),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return info.param == TransportKind::Threads ? "Threads" : "ProcessShm";
    });

TEST_P(TransportParity, EveryRankRunsAndSeesItsOwnRank) {
  std::vector<std::int64_t> sums;
  smpi::launch({.nranks = 4, .transport = GetParam()},
               [&](Communicator& comm) {
                 std::vector<std::int64_t> v{comm.rank(), 1};
                 comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   sums = v;
                 }
               });
  ASSERT_EQ(sums.size(), 2U);
  EXPECT_EQ(sums[0], 0 + 1 + 2 + 3);
  EXPECT_EQ(sums[1], 4);  // Each rank ran exactly once.
}

TEST_P(TransportParity, RequestWaitAndTestAgree) {
  smpi::launch({.nranks = 2, .transport = GetParam()}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int a = 0;
      std::vector<float> b(512, 0.0F);
      Request ra = comm.irecv(&a, sizeof(int), 1, 1);
      Request rb = comm.irecv(b.data(), b.size() * sizeof(float), 1, 2);
      EXPECT_FALSE(ra.test());  // Nothing sent yet.
      comm.barrier();           // Sender fires after both are posted.
      while (!ra.test()) {
      }
      EXPECT_EQ(a, 77);
      const smpi::Status st = rb.wait();
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.tag, 2);
      EXPECT_EQ(st.bytes, b.size() * sizeof(float));
      EXPECT_FLOAT_EQ(b[13], 13.0F);
      // A completed request stays completed.
      EXPECT_TRUE(ra.test());
      EXPECT_TRUE(rb.test());
    } else {
      comm.barrier();
      const int v = 77;
      comm.send_n(&v, 1, 0, 1);
      std::vector<float> payload(512);
      std::iota(payload.begin(), payload.end(), 0.0F);
      comm.send(payload.data(), payload.size() * sizeof(float), 0, 2);
    }
  });
}

TEST_P(TransportParity, MatchingSemanticsObservedFromRankZero) {
  smpi::launch({.nranks = 3, .transport = GetParam()}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.barrier();  // Both senders have queued their messages.
      // Tag selection among pending messages.
      int got = 0;
      comm.recv_n(&got, 1, 1, 2);
      EXPECT_EQ(got, 20);
      comm.recv_n(&got, 1, 1, 1);
      EXPECT_EQ(got, 10);
      // Non-overtaking per (source, tag).
      for (int i = 0; i < 16; ++i) {
        comm.recv_n(&got, 1, 2, 3);
        EXPECT_EQ(got, i);
      }
      // Any-source / any-tag still drains in arrival order.
      const int fin = 99;
      (void)fin;
      comm.barrier();
    } else if (comm.rank() == 1) {
      const int a = 10;
      const int b = 20;
      comm.send_n(&a, 1, 0, 1);
      comm.send_n(&b, 1, 0, 2);
      comm.barrier();
      comm.barrier();
    } else {
      for (int i = 0; i < 16; ++i) {
        comm.send_n(&i, 1, 0, 3);
      }
      comm.barrier();
      comm.barrier();
    }
  });
}

TEST_P(TransportParity, CollectivesAgree) {
  std::vector<double> stats;
  std::vector<int> gathered;
  int bcast_seen_sum = -1;
  smpi::launch({.nranks = 4, .transport = GetParam()},
               [&](Communicator& comm) {
                 const double r = comm.rank() + 1.0;
                 std::vector<double> v{r, r, r, r};
                 comm.allreduce(std::span<double>(v).subspan(0, 1),
                                ReduceOp::Sum);
                 comm.allreduce(std::span<double>(v).subspan(1, 1),
                                ReduceOp::Min);
                 comm.allreduce(std::span<double>(v).subspan(2, 1),
                                ReduceOp::Max);
                 comm.allreduce(std::span<double>(v).subspan(3, 1),
                                ReduceOp::Prod);

                 int root_val = (comm.rank() == 2) ? 123 : 0;
                 comm.bcast(&root_val, sizeof(int), 2);
                 // Prove every rank saw the broadcast, not just rank 0.
                 std::vector<std::int64_t> ok{root_val == 123 ? 1 : 0};
                 comm.allreduce(std::span<std::int64_t>(ok), ReduceOp::Sum);

                 const int mine = comm.rank() + 1;
                 std::vector<int> all(comm.rank() == 0 ? 4 : 0);
                 comm.gather(&mine, sizeof(int), all.data(), 0);

                 if (comm.rank() == 0) {
                   stats = v;
                   gathered = all;
                   bcast_seen_sum = static_cast<int>(ok[0]);
                 }
               });
  ASSERT_EQ(stats.size(), 4U);
  EXPECT_DOUBLE_EQ(stats[0], 10.0);
  EXPECT_DOUBLE_EQ(stats[1], 1.0);
  EXPECT_DOUBLE_EQ(stats[2], 4.0);
  EXPECT_DOUBLE_EQ(stats[3], 24.0);
  EXPECT_EQ(gathered, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(bcast_seen_sum, 4);
}

TEST_P(TransportParity, LargeBidirectionalMessagesDoNotDeadlock) {
  // Payloads far beyond the shared ring capacity, sent from both sides
  // before either receive is posted: buffered-send semantics must hold
  // on every transport (the basic halo pattern relies on it).
  smpi::launch({.nranks = 2, .transport = GetParam(), .shm_ring_kb = 16},
               [](Communicator& comm) {
                 const int other = 1 - comm.rank();
                 std::vector<double> out(1 << 16, comm.rank() + 1.0);
                 std::vector<double> in(1 << 16, 0.0);
                 comm.send(out.data(), out.size() * sizeof(double), other, 11);
                 comm.recv(in.data(), in.size() * sizeof(double), other, 11);
                 std::vector<std::int64_t> ok{
                     in.front() == other + 1.0 && in.back() == other + 1.0
                         ? 1
                         : 0};
                 comm.allreduce(std::span<std::int64_t>(ok), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   EXPECT_EQ(ok[0], 2);
                 }
               });
}

TEST_P(TransportParity, SendNeverWaitsForItsReceiver) {
  // Rank 0 isends 4x the ring, then raises a flag in a page shared
  // across fork, then waits. Rank 1 makes no smpi call until it sees the
  // flag (or 5 s pass), so the flag can only rise if the send returned
  // without rank 1 draining anything.
  void* page = ::mmap(nullptr, sizeof(std::atomic<int>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1,
                      0);
  ASSERT_NE(page, MAP_FAILED);
  auto* flag = new (page) std::atomic<int>(0);
  const std::size_t n = 64 * 1024 / sizeof(float);
  bool pending_before_flag = false;  // rank 0's view
  std::int64_t verdict = -1;
  smpi::launch(
      {.nranks = 2, .transport = GetParam(), .shm_ring_kb = 16},
      [&](Communicator& comm) {
        std::int64_t ok = 1;
        if (comm.rank() == 0) {
          std::vector<float> out(n);
          std::iota(out.begin(), out.end(), 0.0F);
          Request req = comm.isend(out.data(), n * sizeof(float), 1, 3);
          pending_before_flag = !req.test();
          flag->store(1, std::memory_order_release);
          req.wait();
        } else {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (flag->load(std::memory_order_acquire) == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          ok = flag->load(std::memory_order_acquire);
          std::vector<float> in(n, -1.0F);
          comm.recv(in.data(), n * sizeof(float), 0, 3);
          for (std::size_t i = 0; i < n; ++i) {
            if (in[i] != static_cast<float>(i)) {
              ok = 0;
            }
          }
        }
        std::vector<std::int64_t> v{ok};
        comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Min);
        if (comm.rank() == 0) {
          verdict = v[0];
        }
      });
  ::munmap(page, sizeof(std::atomic<int>));
  EXPECT_EQ(verdict, 1);
  if (GetParam() == TransportKind::ProcessShm) {
    // 64 KiB cannot fit a 16 KiB ring nobody drains: the send must be
    // queued, not complete, when isend returns.
    EXPECT_TRUE(pending_before_flag);
  }
}

TEST_P(TransportParity, FirstErrorByRankOrderWins) {
  // Ranks 1 and 3 both fail; the contract reports rank 1 regardless of
  // which one's failure is noticed first.
  try {
    smpi::launch({.nranks = 4, .transport = GetParam()},
                 [](Communicator& comm) {
                   if (comm.rank() == 1) {
                     throw std::runtime_error("boom from 1");
                   }
                   if (comm.rank() == 3) {
                     throw std::runtime_error("boom from 3");
                   }
                 });
    FAIL() << "expected an exception";
  } catch (const std::exception& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("boom from 1"), std::string::npos) << what;
    EXPECT_EQ(what.find("boom from 3"), std::string::npos) << what;
  }
}

// --- Error contract specifics of process_shm --------------------------------

struct CustomFailure : std::runtime_error {
  CustomFailure() : std::runtime_error("custom failure on rank 0") {}
};

TEST(TransportErrors, RankZeroKeepsItsOriginalExceptionType) {
  // Rank 0 runs in the launching process, so its exception must arrive
  // unflattened even though child errors cross a process boundary.
  EXPECT_THROW(
      smpi::launch({.nranks = 3, .transport = TransportKind::ProcessShm},
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       throw CustomFailure();
                     }
                   }),
      CustomFailure);
}

TEST(TransportErrors, ChildFailureArrivesAsRankErrorWithRankAndMessage) {
  try {
    smpi::launch({.nranks = 4, .transport = TransportKind::ProcessShm},
                 [](Communicator& comm) {
                   if (comm.rank() == 2) {
                     throw std::logic_error("child detonated");
                   }
                 });
    FAIL() << "expected RankError";
  } catch (const RankError& ex) {
    EXPECT_EQ(ex.rank(), 2);
    EXPECT_NE(std::string(ex.what()).find("child detonated"),
              std::string::npos);
  }
}

TEST(TransportErrors, CleanLaunchAfterFailedLaunch) {
  // A failed launch must fully reap its children and shared segment so
  // the next launch starts from a clean slate.
  EXPECT_THROW(
      smpi::launch({.nranks = 2, .transport = TransportKind::ProcessShm},
                   [](Communicator& comm) {
                     if (comm.rank() == 1) {
                       throw std::runtime_error("first launch fails");
                     }
                   }),
      RankError);
  std::int64_t sum = -1;
  smpi::launch({.nranks = 2, .transport = TransportKind::ProcessShm},
               [&](Communicator& comm) {
                 std::vector<std::int64_t> v{comm.rank() + 1};
                 comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   sum = v[0];
                 }
               });
  EXPECT_EQ(sum, 3);
}

// --- Sends still queued at teardown -----------------------------------------

TEST(TransportTeardown, ChildFlushesQueuedSendsBeforeItsCleanExit) {
  // Rank 1 isends 4x the ring and returns without waiting; its process
  // must still deliver every byte before reporting a clean exit. The
  // buffer lives outside the body, so it outlives the send in each rank
  // process. Rank 0 polls with a deadline so a lost send fails the test
  // instead of hanging it.
  const std::size_t n = 4 * 16 * 1024 / sizeof(float);
  std::vector<float> out(n);
  std::iota(out.begin(), out.end(), 0.0F);
  std::vector<float> in(n, -1.0F);
  bool received = false;
  smpi::launch(
      {.nranks = 2, .transport = TransportKind::ProcessShm, .shm_ring_kb = 16},
      [&](Communicator& comm) {
        if (comm.rank() == 1) {
          (void)comm.isend(out.data(), n * sizeof(float), 0, 9);
          return;
        }
        Request rx = comm.irecv(in.data(), n * sizeof(float), 1, 9);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!rx.test() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        received = rx.test();
      });
  ASSERT_TRUE(received);
  EXPECT_EQ(in, out);
}

TEST(TransportTeardown, RankZeroErrorDropsItsQueuedSends) {
  // Rank 0 queues 4x the ring from a scoped buffer and throws; the
  // unwinding frees the buffer, so the launcher must drop the queue
  // before it progresses rank 0's endpoint again (ASan reports the
  // use-after-free otherwise). Rank 1, blocked on the message, unwinds
  // as collateral.
  EXPECT_THROW(
      smpi::launch({.nranks = 2,
                    .transport = TransportKind::ProcessShm,
                    .shm_ring_kb = 16},
                   [](Communicator& comm) {
                     const std::size_t n = 4 * 16 * 1024 / sizeof(float);
                     std::vector<float> buf(n, 1.0F);
                     if (comm.rank() == 0) {
                       (void)comm.isend(buf.data(), n * sizeof(float), 1, 9);
                       throw CustomFailure();
                     }
                     comm.recv(buf.data(), n * sizeof(float), 0, 9);
                   }),
      CustomFailure);
  std::int64_t sum = -1;
  smpi::launch({.nranks = 2, .transport = TransportKind::ProcessShm},
               [&](Communicator& comm) {
                 std::vector<std::int64_t> v{comm.rank() + 1};
                 comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
                 if (comm.rank() == 0) {
                   sum = v[0];
                 }
               });
  EXPECT_EQ(sum, 3);
}

// --- Oversubscription -------------------------------------------------------

TEST(TransportOversubscribe, SixteenRankCartOnProcessShm) {
  // 16 rank processes on whatever cores the runner has: far past core
  // count on CI. A 2x2x4 topology exercises coords, shifts and a full
  // neighbour exchange along the fastest-varying dimension.
  std::int64_t rank_sum = -1;
  std::int64_t mismatches = -1;
  smpi::launch(
      {.nranks = 16, .transport = TransportKind::ProcessShm},
      [&](Communicator& comm) {
        CartComm cart(comm, {2, 2, 4});
        std::int64_t bad = 0;
        if (cart.rank_of(cart.my_coords()) != comm.rank()) {
          ++bad;
        }
        // Neighbour exchange along dim 2: send my rank right, receive
        // from the left; boundaries are kProcNull (no-op partners).
        const auto sh = cart.shift(2, 1);
        const std::int64_t mine = comm.rank();
        std::int64_t theirs = -1;
        comm.sendrecv(&mine, sizeof(mine), sh.dest, 7, &theirs,
                      sizeof(theirs), sh.source, 7);
        if (sh.source != smpi::kProcNull && theirs != sh.source) {
          ++bad;
        }
        std::vector<std::int64_t> v{comm.rank(), bad};
        comm.allreduce(std::span<std::int64_t>(v), ReduceOp::Sum);
        if (comm.rank() == 0) {
          rank_sum = v[0];
          mismatches = v[1];
        }
      });
  EXPECT_EQ(rank_sum, 16 * 15 / 2);
  EXPECT_EQ(mismatches, 0);
}

// --- Trace aggregation ------------------------------------------------------

TEST(TransportTrace, ChildTracesMergeIntoParentRegistry) {
  obs::set_enabled(true);
  const bool obs_built = obs::enabled();
  obs::set_enabled(false);
  if (!obs_built) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::reset();
  const obs::EnableScope scope(true);  // Inherited by forked children.
  smpi::launch({.nranks = 3, .transport = TransportKind::ProcessShm},
               [](Communicator& comm) {
                 {
                   const obs::Span span("transport.trace_probe",
                                        obs::Cat::Run, comm.rank());
                 }
                 comm.barrier();
               });
  const obs::TraceData data = obs::collect();
  bool seen[3] = {false, false, false};
  std::uint64_t t0[3] = {0, 0, 0};
  for (const auto& rec : data.events) {
    if (rec.name == "transport.trace_probe" && rec.rank >= 0 &&
        rec.rank < 3) {
      seen[rec.rank] = true;
      t0[rec.rank] = rec.t0_ns;
    }
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);  // Imported from the rank-1 process.
  EXPECT_TRUE(seen[2]);
  // Epoch realignment: all three probes ran within one launch, so after
  // the monotonic-clock shift they must land within a few seconds of
  // each other rather than ages apart.
  const std::uint64_t lo = std::min({t0[0], t0[1], t0[2]});
  const std::uint64_t hi = std::max({t0[0], t0[1], t0[2]});
  EXPECT_LT(hi - lo, 30ull * 1000 * 1000 * 1000);

  obs::reset();  // Imported records are dropped with everything else.
  const obs::TraceData after = obs::collect();
  for (const auto& rec : after.events) {
    EXPECT_NE(rec.name, "transport.trace_probe");
  }
}

// --- Bitwise solver equivalence ---------------------------------------------

/// The size of one distributed run: rank count, a cubic grid's edge and
/// dimensions, space order, and the process_shm ring size in KiB (0
/// keeps the default).
struct RunSize {
  int nranks = 4;
  std::int64_t edge = 20;
  int ndims = 2;
  int so = 4;
  std::size_t ring_kb = 0;
};

/// Drives one source-injected simulation of `Model` over the given
/// transport and returns the rank-0 gather of the final wavefield.
template <typename Model>
std::vector<float> run_distributed(TransportKind kind, ir::MpiMode mode,
                                   const RunSize& size) {
  const int steps = 8;
  const auto nd = static_cast<std::size_t>(size.ndims);
  std::vector<float> out;
  const smpi::LaunchOptions launch{
      .nranks = size.nranks, .transport = kind, .shm_ring_kb = size.ring_kb};
  smpi::launch(launch, [&](Communicator& comm) {
    const Grid g(std::vector<std::int64_t>(nd, size.edge),
                 std::vector<double>(nd, 1.0), comm);
    Model model(g, size.so);
    std::vector<double> at(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      at[d] = g.extent()[d] / 2 + (d % 2 == 0 ? 0.013 : -0.027);
    }
    const SparseFunction src("src", g, {at});
    const double dt = model.critical_dt();
    Injection inj(
        model.wavefield(), src,
        [dt](std::int64_t t) { return jitfd::sparse::ricker(t * dt, 6.0, 0.3); },
        nullptr, 1);
    ir::CompileOptions opts;
    opts.mode = mode;
    auto op = model.make_operator(opts, {&inj});
    op->apply({.time_m = 1, .time_M = steps, .scalars = model.scalars(dt)});
    const int nb = model.wavefield().time_buffers();
    auto got = model.wavefield().gather((steps + 1) % nb);
    if (comm.rank() == 0) {
      out = std::move(got);
    }
  });
  return out;
}

/// The acceptance gate: identical rank counts and compile options must
/// produce byte-identical wavefields on both transports, for every halo
/// pattern.
template <typename Model>
void expect_bitwise_transport_equivalence(const RunSize& size = {}) {
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    SCOPED_TRACE(std::string("mode=") + ir::to_string(mode));
    const std::vector<float> threads =
        run_distributed<Model>(TransportKind::Threads, mode, size);
    const std::vector<float> procs =
        run_distributed<Model>(TransportKind::ProcessShm, mode, size);
    ASSERT_FALSE(threads.empty());
    ASSERT_EQ(threads.size(), procs.size());
    const int cmp = std::memcmp(threads.data(), procs.data(),
                                threads.size() * sizeof(float));
    if (cmp != 0) {
      for (std::size_t i = 0; i < threads.size(); ++i) {
        ASSERT_EQ(threads[i], procs[i]) << "first divergence at " << i;
      }
    }
    EXPECT_EQ(cmp, 0);
  }
}

TEST(TransportEquivalence, AcousticBitwiseAcrossTransports) {
  expect_bitwise_transport_equivalence<AcousticModel>();
}

TEST(TransportEquivalence, ElasticBitwiseAcrossTransports) {
  expect_bitwise_transport_equivalence<ElasticModel>();
}

TEST(TransportEquivalence, TtiBitwiseAcrossTransports) {
  expect_bitwise_transport_equivalence<TtiModel>();
}

TEST(TransportEquivalence, AcousticBitwiseWhenHaloFacesOverflowTheRing) {
  // 2 ranks split 32^3 into 16x32x32 blocks: at SO 8 each face is
  // 4x32x32 floats = 16 KiB, through 4 KiB rings, so
  // every halo message waits in its sender's queue.
  expect_bitwise_transport_equivalence<AcousticModel>(
      {.nranks = 2, .edge = 32, .ndims = 3, .so = 8, .ring_kb = 4});
}

}  // namespace
