// Observability subsystem tests: span lifecycle and nesting, ring-buffer
// wraparound accounting, the Chrome trace-event export schema from a
// real 4-rank run, and the perfmodel measured-vs-predicted comparison
// fed by a traced run (message counts must match the Table I structural
// expectation exactly).
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "core/operator.h"
#include "grid/function.h"
#include "obs/json_check.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "perfmodel/compare.h"
#include "perfmodel/kernel_spec.h"
#include "perfmodel/machine.h"
#include "perfmodel/scaling.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace perf = jitfd::perf;
namespace sym = jitfd::sym;

// Whether the obs subsystem was compiled in (JITFD_OBS=ON). Under
// JITFD_OBS_DISABLED every site folds away and these tests are vacuous.
bool obs_built() {
  obs::set_enabled(true);
  const bool on = obs::enabled();
  obs::set_enabled(false);
  return on;
}

TEST(Trace, SpanNestingAndOrdering) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::reset();
  obs::set_enabled(true);
  {
    obs::Span outer("test.outer", obs::Cat::Run, 11, 3);
    {
      obs::Span inner("test.inner", obs::Cat::Compute);
      obs::instant("test.instant", obs::Cat::Msg, 42, 7);
    }
  }
  obs::set_enabled(false);

  const obs::TraceData data = obs::collect();
  ASSERT_EQ(data.events.size(), 3U);
  EXPECT_EQ(data.dropped, 0U);

  const obs::TraceData::Rec* outer = nullptr;
  const obs::TraceData::Rec* inner = nullptr;
  const obs::TraceData::Rec* inst = nullptr;
  for (const auto& e : data.events) {
    if (e.name == "test.outer") {
      outer = &e;
    } else if (e.name == "test.inner") {
      inner = &e;
    } else if (e.name == "test.instant") {
      inst = &e;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(inst, nullptr);

  // Nesting depth: outer is top-level, inner one below, the instant
  // fired while both spans were open.
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(inst->depth, 2);
  // Containment: the child interval lies inside the parent's.
  EXPECT_LE(outer->t0_ns, inner->t0_ns);
  EXPECT_GE(outer->t1_ns, inner->t1_ns);
  EXPECT_LE(inner->t0_ns, inst->t0_ns);
  // Instants have zero duration; spans have t1 >= t0.
  EXPECT_EQ(inst->t0_ns, inst->t1_ns);
  EXPECT_GE(inner->t1_ns, inner->t0_ns);
  // Payload arguments survive the ring.
  EXPECT_EQ(outer->a0, 11);
  EXPECT_EQ(outer->a1, 3);
  EXPECT_EQ(inst->a0, 42);
  EXPECT_EQ(inst->a1, 7);
  EXPECT_EQ(inst->cat, obs::Cat::Msg);

  // collect() returns events sorted by (rank, start time).
  for (std::size_t i = 1; i < data.events.size(); ++i) {
    const auto& a = data.events[i - 1];
    const auto& b = data.events[i];
    EXPECT_TRUE(a.rank < b.rank ||
                (a.rank == b.rank && a.t0_ns <= b.t0_ns));
  }
}

TEST(Trace, SpanClosedEarlyRecordsOnceAndInertWhenDisabled) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::reset();
  obs::set_enabled(true);
  {
    obs::Span s("test.early", obs::Cat::Compute);
    s.set_arg(99);
    s.close();
    s.close();  // Idempotent: must not double-record.
  }
  obs::set_enabled(false);
  {
    obs::Span s("test.dark", obs::Cat::Compute);  // Tracing off: inert.
  }
  obs::instant("test.dark", obs::Cat::Msg);
  const obs::TraceData data = obs::collect();
  ASSERT_EQ(data.events.size(), 1U);
  EXPECT_EQ(data.events[0].name, "test.early");
  EXPECT_EQ(data.events[0].a0, 99);
}

TEST(Trace, RingWraparoundKeepsTailAndCountsDropped) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::reset();
  // Capacity applies to buffers created after the call; a fresh thread
  // gets a fresh (small) ring.
  obs::set_ring_capacity(64);
  obs::set_enabled(true);
  std::thread writer([] {
    obs::set_thread_rank(5);
    for (int i = 0; i < 200; ++i) {
      obs::instant("test.wrap", obs::Cat::Msg, i);
    }
  });
  writer.join();
  obs::set_enabled(false);
  const obs::TraceData data = obs::collect();
  obs::set_ring_capacity(std::size_t{1} << 16);  // Restore the default.

  std::size_t kept = 0;
  std::int64_t min_a0 = 1'000'000;
  for (const auto& e : data.events) {
    if (e.rank == 5 && e.name == "test.wrap") {
      ++kept;
      min_a0 = std::min(min_a0, e.a0);
    }
  }
  // The ring holds the newest 64 events; the oldest 136 are dropped and
  // accounted for rather than silently lost.
  EXPECT_EQ(kept, 64U);
  EXPECT_EQ(data.dropped, 136U);
  EXPECT_EQ(min_a0, 136);
}

// A traced 4-rank diffusion run used by the export/perfmodel tests.
struct TracedRun {
  jitfd::core::RunSummary rank0;
  std::int64_t global_points = 0;
};

TracedRun traced_diffusion(
    int nranks, ir::MpiMode mode, std::int64_t n, int steps,
    core::Backend backend = core::Backend::Interpret) {
  TracedRun out;
  out.global_points = n * n;
  obs::reset();
  smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                sym::Ex(0), u.forward()))},
                opts);
    op.set_default_backend(backend);
    const auto run = op.apply({.time_m = 0,
                               .time_M = steps - 1,
                               .scalars = {{"dt", 1e-3}},
                               .trace = true});
    if (comm.rank() == 0) {
      out.rank0 = run;
    }
  });
  return out;
}

TEST(TraceExport, ChromeJsonSchemaFromFourRankRun) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const TracedRun traced = traced_diffusion(4, ir::MpiMode::Basic, 12, 4);
  ASSERT_TRUE(traced.rank0.trace.active());

  const obs::TraceData data = traced.rank0.trace.data();
  ASSERT_FALSE(data.empty());
  EXPECT_EQ(data.dropped, 0U);

  const std::string json = obs::chrome_trace_string(data);
  const obs::ChromeCheck check = obs::validate_chrome_trace(json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.complete, 0);
  // One track per rank.
  EXPECT_EQ(check.tids, (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(check.events, static_cast<std::int64_t>(data.events.size()));

  // The per-step and halo leaf spans made it into the stream.
  EXPECT_NE(json.find("\"step\""), std::string::npos);
  EXPECT_NE(json.find("\"halo.pack\""), std::string::npos);
  EXPECT_NE(json.find("\"halo.send\""), std::string::npos);
  EXPECT_NE(json.find("\"halo.unpack\""), std::string::npos);

  // The human summary aggregates every rank.
  const std::string summary = traced.rank0.trace.summary();
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(summary.find("rank " + std::to_string(r)), std::string::npos)
        << summary;
  }
}

TEST(TraceExport, ProfileDistillsStepsMessagesAndPhases) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const int steps = 5;
  const TracedRun traced = traced_diffusion(4, ir::MpiMode::Basic, 12, steps);
  const obs::RunProfile profile = traced.rank0.trace.profile();
  ASSERT_EQ(profile.ranks.size(), 4U);
  EXPECT_EQ(profile.steps(), static_cast<std::uint64_t>(steps));
  // 2x2 process grid, basic pattern: 2 face neighbours per rank, so 8
  // messages per exchange and one exchange per step (Table I).
  EXPECT_EQ(profile.messages(), static_cast<std::uint64_t>(8 * steps));
  EXPECT_GT(profile.bytes_sent(), 0U);
  EXPECT_GT(profile.wall_s(), 0.0);
  for (const auto& rank : profile.ranks) {
    EXPECT_GT(rank.compute_s, 0.0) << "rank " << rank.rank;
    EXPECT_GT(rank.comm_s(), 0.0) << "rank " << rank.rank;
  }
  const double fraction = profile.comm_fraction();
  EXPECT_GT(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
}

class MeasuredVsPredicted : public ::testing::TestWithParam<ir::MpiMode> {};

TEST_P(MeasuredVsPredicted, SmokeAgainstScalingModel) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const ir::MpiMode mode = GetParam();
  const std::int64_t n = 16;
  const int steps = 4;
  const TracedRun traced = traced_diffusion(4, mode, n, steps);

  const obs::RunProfile profile = traced.rank0.trace.profile();
  const perf::MeasuredRun measured = perf::measured_from(
      profile, "diffusion", mode, /*so=*/2,
      traced.global_points * steps);
  EXPECT_EQ(measured.ranks, 4);
  EXPECT_EQ(measured.steps, steps);
  EXPECT_GT(measured.wall_seconds, 0.0);

  const perf::ScalingModel model(perf::archer2_node(), perf::acoustic_spec(),
                                 perf::Target::Cpu);
  const std::vector<int> topology{2, 2};
  const perf::Comparison cmp =
      perf::compare_run(measured, model, topology, {n, n});

  // The measured message count must equal the Table I structural
  // expectation exactly — a mismatch is a runtime bug, not model error.
  EXPECT_EQ(cmp.expected_messages,
            perf::table1_messages(topology, mode) *
                static_cast<std::uint64_t>(steps));
  EXPECT_TRUE(cmp.messages_match())
      << "mode " << ir::to_string(mode) << ": measured "
      << cmp.measured.messages << " expected " << cmp.expected_messages;

  EXPECT_GT(cmp.measured_gpts, 0.0);
  EXPECT_GT(cmp.predicted_gpts, 0.0);
  EXPECT_GT(cmp.predicted_step_seconds, 0.0);
  EXPECT_GE(cmp.predicted_comm_fraction, 0.0);
  EXPECT_LE(cmp.predicted_comm_fraction, 1.0);
  EXPECT_GT(cmp.measured_bytes_per_step, 0.0);
  EXPECT_GT(cmp.predicted_bytes_per_step, 0.0);

  // Both report formats are well-formed and carry the row.
  const std::string table = perf::comparison_table({cmp});
  EXPECT_NE(table.find(ir::to_string(mode)), std::string::npos) << table;
  EXPECT_EQ(table.find("MESSAGE MISMATCH"), std::string::npos) << table;
  const std::string json = perf::comparison_json({cmp});
  EXPECT_NE(json.find("\"diffusion\""), std::string::npos);
  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err << "\n" << json;
}

INSTANTIATE_TEST_SUITE_P(Patterns, MeasuredVsPredicted,
                         ::testing::Values(ir::MpiMode::Basic,
                                           ir::MpiMode::Diagonal,
                                           ir::MpiMode::Full));

TEST(Table1, StructuralMessageCounts) {
  // 2x2: 8 face / 12 star. 1x4 chain: 6 both ways. 2x2x2: every rank
  // has 3 face and 7 star neighbours.
  EXPECT_EQ(perf::table1_messages({2, 2}, ir::MpiMode::Basic), 8U);
  EXPECT_EQ(perf::table1_messages({2, 2}, ir::MpiMode::Diagonal), 12U);
  EXPECT_EQ(perf::table1_messages({2, 2}, ir::MpiMode::Full), 12U);
  EXPECT_EQ(perf::table1_messages({1, 4}, ir::MpiMode::Basic), 6U);
  EXPECT_EQ(perf::table1_messages({1, 4}, ir::MpiMode::Diagonal), 6U);
  EXPECT_EQ(perf::table1_messages({2, 2, 2}, ir::MpiMode::Basic), 24U);
  EXPECT_EQ(perf::table1_messages({2, 2, 2}, ir::MpiMode::Full), 56U);
  // Single rank: no neighbours, no messages.
  EXPECT_EQ(perf::table1_messages({1, 1}, ir::MpiMode::Full), 0U);
}

TEST(Trace, CatToStringIsExhaustiveAndDistinct) {
  // Every enumerator in [0, kCatCount) must map to a real name — "?" is
  // the out-of-range fallback — and no two categories may share one
  // (they are aggregation keys). Guards the enum against a new category
  // being appended without updating to_string or kCatCount.
  std::set<std::string> seen;
  for (int i = 0; i < obs::kCatCount; ++i) {
    const char* name = obs::to_string(static_cast<obs::Cat>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "category " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "category " << i << " duplicates name \"" << name << "\"";
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(obs::kCatCount));
  EXPECT_EQ(obs::to_string(obs::Cat::Run), std::string("run"));
  // Out-of-range values hit the fallback rather than UB.
  EXPECT_STREQ(obs::to_string(static_cast<obs::Cat>(obs::kCatCount)), "?");
}

TEST(TraceExport, JitProfileAttributionMatchesInterpreter) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  if (std::system("cc --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no C compiler available";
  }
  // The same 4-rank diffusion through both backends. JIT ranks record
  // no per-step or compute spans — their compute is derived from the
  // jit.run umbrella minus the halo callbacks — so the profiles must
  // agree on every deterministic dimension (messages, bytes) while the
  // JIT side still reports a positive, wall-bounded compute split.
  const std::int64_t n = 12;
  const int steps = 4;
  const TracedRun interp =
      traced_diffusion(4, ir::MpiMode::Basic, n, steps,
                       core::Backend::Interpret);
  const obs::RunProfile pi = interp.rank0.trace.profile();
  const TracedRun jit = traced_diffusion(4, ir::MpiMode::Basic, n, steps,
                                         core::Backend::Jit);
  const obs::RunProfile pj = jit.rank0.trace.profile();

  ASSERT_EQ(pi.ranks.size(), 4U);
  ASSERT_EQ(pj.ranks.size(), 4U);
  // Deterministic dimensions match exactly across backends.
  EXPECT_EQ(pj.messages(), pi.messages());
  EXPECT_EQ(pj.bytes_sent(), pi.bytes_sent());
  // The interpreter counts steps from per-step spans; the generated
  // loop records none, so its steps come out zero and compute falls
  // back to the umbrella split.
  EXPECT_EQ(pi.steps(), static_cast<std::uint64_t>(steps));
  EXPECT_EQ(pj.steps(), 0U);
  for (const obs::RankProfile& r : pj.ranks) {
    EXPECT_GT(r.compute_s, 0.0) << "jit rank " << r.rank;
    EXPECT_LE(r.compute_s, r.wall_s) << "jit rank " << r.rank;
    EXPECT_GT(r.comm_s(), 0.0) << "jit rank " << r.rank;
  }
  // Both feed the same comm_fraction contract.
  EXPECT_GT(pj.comm_fraction(), 0.0);
  EXPECT_LE(pj.comm_fraction(), 1.0);
}

TEST(TraceJson, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(obs::json_valid(R"({"a": [1, 2.5e3, "x\n", true, null]})"));
  std::string err;
  EXPECT_FALSE(obs::json_valid("{\"a\": }", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(obs::json_valid("{} trailing"));

  const obs::ChromeCheck bad = obs::validate_chrome_trace("[1, 2]");
  EXPECT_FALSE(bad.ok);
  const obs::ChromeCheck good = obs::validate_chrome_trace(
      R"({"traceEvents": [)"
      R"({"name": "m", "ph": "M", "ts": 0, "pid": 0, "tid": 1},)"
      R"({"name": "s", "ph": "X", "ts": 1, "dur": 5, "pid": 0, "tid": 1},)"
      R"({"name": "i", "ph": "i", "ts": 2, "pid": 0, "tid": 2}]})");
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.complete, 1);
  EXPECT_EQ(good.instants, 1);
  EXPECT_EQ(good.events, 2);
  EXPECT_EQ(good.tids, (std::set<int>{1, 2}));
}

}  // namespace
