// Observability subsystem tests: span lifecycle and nesting, ring-buffer
// wraparound accounting, the Chrome trace-event export schema from a
// real 4-rank run, the perfmodel measured-vs-predicted comparison fed by
// a traced run (message counts must match the Table I structural
// expectation exactly), and the JSON writer and parser: bit-exact number
// round-trips, the nesting cap, and seeded mutations of every export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <thread>

#include "core/autotune.h"
#include "core/operator.h"
#include "grid/function.h"
#include "models/acoustic.h"
#include "obs/analysis.h"
#include "obs/flight.h"
#include "obs/json.h"
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

  std::ostringstream os;
  obs::write_chrome_trace(os, data);
  const std::string json = os.str();
  const obs::SchemaCheck check =
      obs::validate(json, obs::chrome_trace_schema());
  EXPECT_TRUE(check.ok) << check.error;
  const obs::ChromeStats stats = obs::chrome_stats(check.doc);
  EXPECT_GT(stats.complete, 0);
  // One track per rank.
  EXPECT_EQ(stats.tids, (std::set<int>{0, 1, 2, 3}));
  EXPECT_EQ(stats.events, static_cast<std::int64_t>(data.events.size()));

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

TEST(TraceExport, TracedInterpreterShotRecordsTwoEventsPerStep) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  // The shot bench_trace_overhead times: serial acoustic 64^2, SO 4,
  // interpreter, 400 steps. One apply span, then a step span and one
  // compute span per step: 801 events, none dropped.
  obs::reset();
  const Grid grid({64, 64}, {640.0, 640.0});
  jitfd::models::AcousticModel model(
      grid, /*so=*/4, [](std::span<const std::int64_t>) { return 1.5; },
      /*vmax=*/1.5, /*nbl=*/8);
  model.wavefield().fill_global_box(0, std::vector<std::int64_t>{30, 30},
                                    std::vector<std::int64_t>{34, 34}, 1e-3F);
  auto op = model.make_operator({});
  const auto run = op->apply({.time_m = 1,
                              .time_M = 400,
                              .scalars = model.scalars(model.critical_dt()),
                              .trace = true});
  ASSERT_TRUE(run.trace.active());
  const obs::TraceData data = run.trace.data();
  EXPECT_EQ(data.events.size(), 801U);
  EXPECT_EQ(data.dropped, 0U);
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

  // The report table carries the row.
  const std::string table = perf::comparison_table({cmp});
  EXPECT_NE(table.find(ir::to_string(mode)), std::string::npos) << table;
  EXPECT_EQ(table.find("MESSAGE MISMATCH"), std::string::npos) << table;
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

  const obs::Schema& chrome = obs::chrome_trace_schema();
  EXPECT_FALSE(obs::validate("[1, 2]", chrome).ok);
  const obs::SchemaCheck good = obs::validate(
      R"({"traceEvents": [)"
      R"({"name": "m", "ph": "M", "ts": 0, "pid": 0, "tid": 1},)"
      R"({"name": "s", "ph": "X", "ts": 1, "dur": 5, "pid": 0, "tid": 1},)"
      R"({"name": "i", "ph": "i", "ts": 2, "pid": 0, "tid": 2}]})",
      chrome);
  EXPECT_TRUE(good.ok) << good.error;
  const obs::ChromeStats stats = obs::chrome_stats(good.doc);
  EXPECT_EQ(stats.complete, 1);
  EXPECT_EQ(stats.instants, 1);
  EXPECT_EQ(stats.events, 2);
  EXPECT_EQ(stats.tids, (std::set<int>{1, 2}));
  // The conditional rule: complete events need a duration >= 0, timed
  // events a timestamp >= 0.
  EXPECT_FALSE(obs::validate(R"({"traceEvents": [{"name": "s", "ph": "X", )"
                             R"("ts": 1, "pid": 0, "tid": 1}]})",
                             chrome)
                   .ok);
  EXPECT_FALSE(obs::validate(R"({"traceEvents": [{"name": "s", "ph": "X", )"
                             R"("ts": 1, "dur": -1, "pid": 0, "tid": 1}]})",
                             chrome)
                   .ok);
  EXPECT_FALSE(obs::validate(R"({"traceEvents": [{"name": "i", "ph": "i", )"
                             R"("ts": -2, "pid": 0, "tid": 1}]})",
                             chrome)
                   .ok);
}

// ---------------------------------------------------------------------
// The JSON writer and the parser's robustness.
// ---------------------------------------------------------------------

TEST(JsonWriter, DoublesRoundTripBitForBitAndNonFiniteIsNull) {
  const double values[] = {0.0,
                           -0.0,
                           1.0606601717798212,
                           0.1,
                           -2.5e-7,
                           123456789.125,
                           1e21,
                           4.9e-320,  // Subnormal.
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max()};
  obs::JsonWriter w;
  w.begin_array();
  for (const double v : values) {
    w.value(v);
  }
  w.value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .end();
  const std::string json = w.take();
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, doc, &err)) << err << "\n" << json;
  ASSERT_EQ(doc.arr.size(), std::size(values) + 3);
  for (std::size_t i = 0; i < std::size(values); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(doc.arr[i].num),
              std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i << " in " << json;
  }
  for (std::size_t i = std::size(values); i < doc.arr.size(); ++i) {
    EXPECT_EQ(doc.arr[i].type, obs::JsonValue::Type::Null) << json;
  }
}

TEST(JsonWriter, EscapesStringsAndTracksNesting) {
  const std::string text = "q\"b\\s\n\t\r\x01\x1f end";
  obs::JsonWriter w;
  w.begin_object().field(text, text).key("rows").begin_array();
  w.begin_object().field("n", std::int64_t{-3}).key("flags").begin_array();
  w.value(true).value(false).end().end();
  w.begin_object().end();
  w.end().key("empty").begin_array().end();
  w.key("raw").raw(R"({"k": [1, 2]})").end();
  const std::string json = w.take();
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, doc, &err)) << err << "\n" << json;
  ASSERT_EQ(doc.obj.size(), 4U) << json;
  EXPECT_EQ(doc.obj[0].first, text);
  EXPECT_EQ(doc.obj[0].second.str, text);
  const obs::JsonValue& rows = *doc.find("rows");
  ASSERT_EQ(rows.arr.size(), 2U);
  EXPECT_EQ(rows.arr[0].find("n")->num, -3.0);
  ASSERT_EQ(rows.arr[0].find("flags")->arr.size(), 2U);
  EXPECT_TRUE(rows.arr[0].find("flags")->arr[0].boolean);
  EXPECT_TRUE(rows.arr[1].obj.empty());
  EXPECT_TRUE(doc.find("empty")->arr.empty());
  EXPECT_EQ(doc.find("raw")->find("k")->arr.size(), 2U);
}

TEST(TraceJson, NestingIsCappedWithAPositionedError) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(obs::json_valid(nested(obs::kMaxJsonDepth)));
  std::string err;
  EXPECT_FALSE(obs::json_valid(nested(obs::kMaxJsonDepth + 1), &err));
  EXPECT_NE(err.find("nesting deeper than 256 levels (offset 256)"),
            std::string::npos)
      << err;
  // Two million open brackets under an analysis key: rejected at the
  // cap, not by exhausting the stack.
  const std::string deep = "{\"analysis\": " + std::string(2'000'000, '[');
  const obs::SchemaCheck check = obs::validate(deep, obs::analysis_schema());
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("nesting deeper"), std::string::npos)
      << check.error;
}

// Every export, built from fixed inputs: chrome trace, analysis,
// autotune report and flight bundle.
// The process-wide trace rings are reset first, so earlier tests do not
// grow the flight bundle.
std::vector<std::string> golden_exports() {
  obs::reset();
  obs::set_enabled(true);
  { const obs::Span span("halo.update", obs::Cat::Halo, 2, 0); }
  obs::set_enabled(false);

  obs::TraceData data;
  data.events = {{"step", obs::Cat::Run, 0, 1000, 9000, 0, 0},
                 {"compute", obs::Cat::Compute, 0, 1100, 4000, 0, 0},
                 {"halo.send", obs::Cat::Send, 0, 4100, 4300, 256, 1},
                 {"halo.start", obs::Cat::Halo, 1, 1200, 1500, 0, 0},
                 {"halo.finish", obs::Cat::Halo, 1, 3000, 5000, 0, 0},
                 {"halo.wait", obs::Cat::Wait, 1, 3100, 4900, 0, 0},
                 {"msg.queued", obs::Cat::Msg, 1, 4400, 4400, 7, 0}};

  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, data);
  std::vector<std::string> docs{chrome.str(),
                                obs::analysis_json(obs::analyze(data))};

  core::AutotuneReport report;
  report.why = "wall objective: \"basic\" untiled fastest at 0.5 s";
  report.trial_steps = 3;
  report.best_tile = {4, 0};
  report.seconds_by_trial[{ir::MpiMode::Basic, {}}] = 0.5;
  report.seconds_by_trial[{ir::MpiMode::Full, {4, 0}}] = 0.25;
  report.skipped[{ir::MpiMode::Full, {16, 0}}] = "tile >= extent";
  docs.push_back(core::autotune_report_json(report));

  char dir[] = "/tmp/jitfd_golden_XXXXXX";
  if (::mkdtemp(dir) != nullptr) {
    ::setenv("JITFD_FLIGHT_DIR", dir, 1);
    obs::flight::reset_for_testing();
    obs::flight::set_config("mode", "\"basic\"");
    obs::flight::record_health({.step = 2,
                                .field_id = 0,
                                .field = "u",
                                .nan_count = 3,
                                .min = 0.0,
                                .max = std::numeric_limits<double>::infinity(),
                                .l2 = 1.0606601717798212,
                                .bad_rank = 1});
    obs::flight::note_step(0, 2);
    const std::string path = obs::flight::dump("golden", 1, 2, "fixed");
    std::ifstream in(path);
    std::ostringstream bundle;
    bundle << in.rdbuf();
    docs.push_back(bundle.str());
    std::remove(path.c_str());
    ::unsetenv("JITFD_FLIGHT_DIR");
    ::rmdir(dir);
    obs::flight::reset_for_testing();
  }
  return docs;
}

TEST(TraceJson, SeededMutationsOfEveryExportNeverCrashTheParser) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::string> golden = golden_exports();
  ASSERT_EQ(golden.size(), 4U);
  const obs::Schema* schemas[] = {&obs::chrome_trace_schema(),
                                  &obs::analysis_schema(),
                                  &obs::autotune_schema(),
                                  &obs::flight_schema()};
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const obs::SchemaCheck check = obs::validate(golden[i], *schemas[i]);
    ASSERT_TRUE(check.ok) << check.error << "\n" << golden[i];
    // Every strict prefix of a valid document is rejected.
    const std::string doc =
        golden[i].substr(0, golden[i].find_last_not_of(" \n") + 1);
    for (std::size_t n = 0; n < doc.size(); ++n) {
      ASSERT_FALSE(obs::json_valid(std::string_view(doc).substr(0, n)))
          << "export " << i << " prefix of " << n << " bytes parsed";
    }
  }

  std::mt19937 rng(20260514);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  for (int round = 0; round < 400; ++round) {
    std::string doc = golden[pick(golden.size())];
    switch (round % 4) {
      case 0:  // Truncation.
        doc.resize(pick(doc.size()));
        break;
      case 1:  // Byte flips.
        for (int k = 1 + static_cast<int>(pick(4)); k > 0; --k) {
          doc[pick(doc.size())] = static_cast<char>(pick(256));
        }
        break;
      case 2: {  // A slice of one export spliced into another.
        const std::string& other = golden[pick(golden.size())];
        const std::size_t from = pick(other.size());
        const std::size_t len = pick(other.size() - from) + 1;
        const std::size_t at = pick(doc.size());
        doc.replace(at, pick(doc.size() - at) + 1, other.substr(from, len));
        break;
      }
      default: {  // Deep nesting at a random point.
        const std::size_t depth = obs::kMaxJsonDepth - 8 + pick(16);
        doc.insert(pick(doc.size()), std::string(depth, "[{"[pick(2)]));
        break;
      }
    }
    // validate() runs json_parse, then the table on what parsed.
    for (const obs::Schema* schema : schemas) {
      (void)obs::validate(doc, *schema);
    }
  }
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            2.0);
}

}  // namespace
