// Cross-rank trace analysis and the analysis JSON schema table.
//
// The analyzer tests run on hand-built TraceData snapshots with exact
// nanosecond timestamps, so the wait-state split and overlap pairing are
// asserted to the nanosecond rather than within noise bands; the
// constructed-imbalance tests then drive the real interpreter with a
// sparse operation that sleeps on one rank every step and check the
// analyzer pins the slow rank across all three patterns.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "core/operator.h"
#include "grid/function.h"
#include "obs/analysis.h"
#include "obs/json_check.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

// Whether the obs subsystem was compiled in (JITFD_OBS=ON). Under
// JITFD_OBS_DISABLED the run-based tests are vacuous; the synthetic
// analyzer tests still run (analyze() is a pure function of its input).
bool obs_built() {
  obs::set_enabled(true);
  const bool on = obs::enabled();
  obs::set_enabled(false);
  return on;
}

obs::TraceData::Rec rec(const char* name, obs::Cat cat, int rank,
                        std::uint64_t t0, std::uint64_t t1,
                        std::int64_t a0 = 0, std::int32_t a1 = 0) {
  obs::TraceData::Rec r;
  r.name = name;
  r.cat = cat;
  r.rank = rank;
  r.t0_ns = t0;
  r.t1_ns = t1;
  r.a0 = a0;
  r.a1 = a1;
  return r;
}

constexpr double kNs = 1e-9;

// ---------------------------------------------------------------------
// Analyzer: synthetic snapshots with exact expectations.
// ---------------------------------------------------------------------

TEST(Analysis, EmptySnapshotYieldsZeroReport) {
  const obs::AnalysisReport rep = obs::analyze(obs::TraceData{});
  EXPECT_EQ(rep.nranks, 0);
  EXPECT_EQ(rep.steps, 0U);
  EXPECT_EQ(rep.matched_waits, 0U);
  EXPECT_EQ(rep.late_sender_culprit, -1);
  EXPECT_EQ(rep.overlap_efficiency, 0.0);
  // The empty report still exports schema-valid JSON.
  const obs::SchemaCheck check =
      obs::validate(obs::analysis_json(rep), obs::analysis_schema());
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Analysis, LateSenderSplitIsExact) {
  // Rank 1 waits on rank 0 during [1000, 2000]; rank 0's matching send
  // runs [1500, 1600]. The receiver idled 500 ns before the send began
  // (late sender); the rest of the wait is transfer.
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 2000, 0, /*peer=*/0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 1500, 1600, 64, /*peer=*/1));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.nranks, 2);
  EXPECT_EQ(rep.matched_waits, 1U);
  EXPECT_EQ(rep.unmatched_waits, 0U);
  EXPECT_NEAR(rep.late_sender_s, 500 * kNs, 1e-12);
  EXPECT_NEAR(rep.late_receiver_s, 0.0, 1e-12);
  EXPECT_NEAR(rep.transfer_s, 500 * kNs, 1e-12);
  EXPECT_EQ(rep.late_sender_culprit, 0);

  ASSERT_EQ(rep.rank_waits.size(), 2U);
  for (const obs::RankWaitStats& w : rep.rank_waits) {
    if (w.rank == 0) {
      EXPECT_NEAR(w.blamed_s, 500 * kNs, 1e-12);
      EXPECT_NEAR(w.late_sender_s, 0.0, 1e-12);
    } else {
      EXPECT_NEAR(w.late_sender_s, 500 * kNs, 1e-12);
      EXPECT_NEAR(w.blamed_s, 0.0, 1e-12);
    }
  }
}

TEST(Analysis, LateReceiverSplitIsExact) {
  // The send completed (buffered) at 200; the receiver only showed up
  // at 1000: the message waited 800 ns for the receiver, and the whole
  // 400 ns wait is transfer/completion, not sender's fault.
  obs::TraceData data;
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 100, 200, 64, /*peer=*/1));
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 1400, 0, /*peer=*/0));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.matched_waits, 1U);
  EXPECT_NEAR(rep.late_sender_s, 0.0, 1e-12);
  EXPECT_NEAR(rep.late_receiver_s, 800 * kNs, 1e-12);
  EXPECT_NEAR(rep.transfer_s, 400 * kNs, 1e-12);
  // No late-sender time anywhere: nobody to blame.
  EXPECT_EQ(rep.late_sender_culprit, -1);
}

TEST(Analysis, WaitsWithoutSendsCountAsUnmatched) {
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 0, 100, 0, /*peer=*/0));
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 200, 300, 0, /*peer=*/0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 10, 20, 64, /*peer=*/1));
  const obs::AnalysisReport rep = obs::analyze(data);
  EXPECT_EQ(rep.matched_waits, 1U);
  EXPECT_EQ(rep.unmatched_waits, 1U);
}

TEST(Analysis, OverlapEfficiencyFromStartFinishPairs) {
  // Async exchange on (rank 0, spot 0): start [0, 100], finish
  // [500, 600]. Window 600 ns, hidden gap 400 ns -> 2/3 efficiency.
  obs::TraceData data;
  data.events.push_back(
      rec("halo.start", obs::Cat::Halo, 0, 0, 100, 0, /*spot=*/0));
  data.events.push_back(
      rec("halo.finish", obs::Cat::Halo, 0, 500, 600, 0, /*spot=*/0));
  const obs::AnalysisReport rep = obs::analyze(data);
  EXPECT_EQ(rep.async_exchanges, 1U);
  EXPECT_NEAR(rep.overlap_window_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.overlap_hidden_s, 400 * kNs, 1e-12);
  EXPECT_NEAR(rep.overlap_efficiency, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(rep.exchanges, 1U);  // halo.start counts as one exchange.
}

TEST(Analysis, ImbalanceFindsCriticalRankPerStepAndOverall) {
  // Two ranks, one step: rank 1 computes 600 ns vs rank 0's 300 ns.
  obs::TraceData data;
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 0, 300, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 1, 0, 600, 0));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.nranks, 2);
  EXPECT_NEAR(rep.max_compute_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.mean_compute_s, 450 * kNs, 1e-12);
  EXPECT_NEAR(rep.imbalance_ratio, 600.0 / 450.0, 1e-9);
  EXPECT_EQ(rep.critical_path_rank, 1);
  ASSERT_EQ(rep.step_loads.size(), 1U);
  EXPECT_EQ(rep.step_loads[0].critical_rank, 1);
  EXPECT_NEAR(rep.step_loads[0].max_compute_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.step_loads[0].mean_compute_s, 450 * kNs, 1e-12);
}

TEST(Analysis, RankLoadsExportedPerRankAndSorted) {
  // Three ranks with distinct compute: the report must carry one load
  // per rank, sorted by rank, with exact seconds.
  obs::TraceData data;
  data.events.push_back(rec("compute", obs::Cat::Compute, 2, 0, 900, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 0, 300, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 1, 0, 600, 0));
  const obs::AnalysisReport rep = obs::analyze(data);
  ASSERT_EQ(rep.rank_loads.size(), 3U);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(rep.rank_loads[static_cast<std::size_t>(r)].rank, r);
  }
  EXPECT_NEAR(rep.rank_loads[0].compute_s, 300 * kNs, 1e-12);
  EXPECT_NEAR(rep.rank_loads[1].compute_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.rank_loads[2].compute_s, 900 * kNs, 1e-12);

  // The JSON export nests the per-rank loads inside "imbalance", and
  // the validator requires them.
  const std::string json = obs::analysis_json(rep);
  EXPECT_NE(json.find("\"ranks\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"compute_seconds\":"), std::string::npos) << json;
  const obs::SchemaCheck check = obs::validate(json, obs::analysis_schema());
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Analysis, JitComputeDerivedFromRunUmbrellaMinusHalo) {
  // A JIT rank records no compute spans; its compute is the jit.run
  // umbrella (1000 ns) minus the nested halo umbrellas (150 ns).
  obs::TraceData data;
  data.events.push_back(rec("jit.run", obs::Cat::Run, 0, 0, 1000, 0));
  data.events.push_back(rec("halo.update", obs::Cat::Halo, 0, 100, 200, 0));
  data.events.push_back(rec("halo.update", obs::Cat::Halo, 0, 300, 350, 0));
  const obs::RunProfile prof = obs::profile_from(data);
  ASSERT_EQ(prof.ranks.size(), 1U);
  EXPECT_NEAR(prof.ranks[0].compute_s, 850 * kNs, 1e-12);
  EXPECT_EQ(prof.ranks[0].steps, 0U);  // No per-step spans in JIT runs.

  // The analyzer inherits the same attribution for its imbalance view.
  const obs::AnalysisReport rep = obs::analyze(data);
  EXPECT_NEAR(rep.max_compute_s, 850 * kNs, 1e-12);
  EXPECT_EQ(rep.critical_path_rank, 0);
  EXPECT_EQ(rep.exchanges, 2U);
}

TEST(Analysis, JsonExportValidatesAndCarriesSections) {
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 2000, 0, 0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 1500, 1600, 64, 1));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 0, 300, 0));
  const obs::AnalysisReport rep = obs::analyze(data);
  const std::string json = obs::analysis_json(rep);

  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err;
  const obs::SchemaCheck check = obs::validate(json, obs::analysis_schema());
  EXPECT_TRUE(check.ok) << check.error << "\n" << json;
  const obs::JsonValue& a = *check.doc.find("analysis");
  for (const char* section : {"wait", "overlap", "imbalance"}) {
    EXPECT_NE(a.find(section), nullptr) << section;
  }
  EXPECT_NE(json.find("\"culprit_rank\": 0"), std::string::npos) << json;

  // Schema violations are rejected.
  EXPECT_FALSE(obs::validate("{\"analysis\": {}}", obs::analysis_schema()).ok);
  EXPECT_FALSE(obs::validate("[1, 2]", obs::analysis_schema()).ok);
}

// ---------------------------------------------------------------------
// Constructed imbalance on real runs: a sparse operation pads one rank's
// every step with traced compute; the analyzer must pin that rank.
// ---------------------------------------------------------------------

// Runs at the end of each step; on the slow rank it sleeps 6 ms inside a
// compute span, so the delay counts as that rank's compute.
class SlowRank : public jitfd::runtime::SparseOp {
 public:
  explicit SlowRank(bool slow) : slow_(slow) {}
  void apply(std::int64_t time) override {
    if (slow_) {
      const obs::Span span("compute.delay", obs::Cat::Compute, time);
      std::this_thread::sleep_for(std::chrono::milliseconds(6));
    }
  }

 private:
  bool slow_;
};

jitfd::core::RunSummary traced_diffusion(int nranks, ir::MpiMode mode,
                                         std::int64_t n, int steps,
                                         int slow_rank) {
  jitfd::core::RunSummary rank0;
  obs::reset();
  smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    SlowRank delay(comm.rank() == slow_rank);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                sym::Ex(0), u.forward()))},
                opts, {&delay});
    const auto run = op.apply({.time_m = 0,
                               .time_M = steps - 1,
                               .scalars = {{"dt", 1e-3}},
                               .trace = true});
    if (comm.rank() == 0) {
      rank0 = run;
    }
  });
  return rank0;
}

class ConstructedImbalance : public ::testing::TestWithParam<ir::MpiMode> {};

TEST_P(ConstructedImbalance, AnalyzerPinsTheSlowRank) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const ir::MpiMode mode = GetParam();
  const int kSlowRank = 3;
  // 6 ms of extra compute per step on one rank of a tiny 12x12
  // problem: orders of magnitude above the real per-step compute and
  // above an OS timeslice, so the verdicts below are noise-proof even
  // on an oversubscribed one-core CI box (the binary also runs
  // RUN_SERIAL so sibling test processes don't add load).
  const int steps = 4;
  const auto run = traced_diffusion(4, mode, 12, steps, kSlowRank);
  ASSERT_TRUE(run.trace.active());
  const obs::AnalysisReport rep = run.trace.analysis();

  EXPECT_EQ(rep.nranks, 4);
  EXPECT_EQ(rep.steps, static_cast<std::uint64_t>(steps));
  // The padded rank dominates compute: it is the critical path and
  // clearly above the mean.
  EXPECT_EQ(rep.critical_path_rank, kSlowRank)
      << "mode " << ir::to_string(mode);
  EXPECT_GT(rep.imbalance_ratio, 2.0);
  // Every pattern blocks on the slow rank's sends: wait matching must
  // find pairs and late-sender attribution must blame the slow rank.
  EXPECT_GT(rep.matched_waits, 0U);
  EXPECT_GT(rep.late_sender_s, 0.0);
  EXPECT_EQ(rep.late_sender_culprit, kSlowRank)
      << "mode " << ir::to_string(mode) << "\n"
      << obs::analysis_json(rep);
  // The per-step loads see the same culprit on every step.
  ASSERT_FALSE(rep.step_loads.empty());
  for (const obs::StepLoad& sl : rep.step_loads) {
    EXPECT_EQ(sl.critical_rank, kSlowRank) << "step " << sl.step;
  }

  // The full report exports schema-valid JSON end to end.
  const obs::SchemaCheck check =
      obs::validate(obs::analysis_json(rep), obs::analysis_schema());
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(Patterns, ConstructedImbalance,
                         ::testing::Values(ir::MpiMode::Basic,
                                           ir::MpiMode::Diagonal,
                                           ir::MpiMode::Full));

}  // namespace
