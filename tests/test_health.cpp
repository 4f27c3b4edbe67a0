// Numerical-health layer tests: the compiler-generated per-field
// reduction kernels (interpreter and JIT, every MPI pattern), the OnNan
// policies, the flight-recorder bundle (and its failure to write), the
// JITFD_INJECT_NAN fault hook, and bitwise neutrality of the checks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/operator.h"
#include "grid/function.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/json_check.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
namespace core = jitfd::core;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;
namespace obs = jitfd::obs;
namespace health = jitfd::obs::health;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

// Whether the obs subsystem (and with it the health layer) was
// compiled in; under JITFD_OBS=OFF lowering emits no health checks and
// these tests are vacuous.
constexpr bool kObsBuilt =
#ifdef JITFD_OBS_DISABLED
    false;
#else
    true;
#endif

#define SKIP_WITHOUT_OBS()                       \
  do {                                           \
    if (!kObsBuilt) {                            \
      GTEST_SKIP() << "built with JITFD_OBS=OFF"; \
    }                                            \
  } while (false)

struct Diffusion {
  explicit Diffusion(const Grid& g, int so = 2)
      : u("u", g, so, 1),
        eq(u.forward(),
           sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward())) {}
  TimeFunction u;
  ir::Eq eq;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A NaN seeded in one rank's owned interior must be reported by the
// next health check, on every pattern, both backends, and both a one-
// and a two-point-wide halo (SO 2 and 4) — and the reduced summary must
// agree on every rank, naming the owning rank.
class SeededNan
    : public ::testing::TestWithParam<
          std::tuple<ir::MpiMode, int, core::Backend>> {};

TEST_P(SeededNan, DetectedOnNextCheckAndCulpritRankNamed) {
  SKIP_WITHOUT_OBS();
  const auto [mode, so, backend] = GetParam();
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const std::int64_t n = 16;
    const Grid g({n, n}, {1.0, 1.0}, comm);
    Diffusion d(g, so);
    d.u.fill(0.5F);
    // Interior point far from any rank boundary, so at step 0 only the
    // owning rank's region is poisoned.
    const std::vector<std::int64_t> seed{3, 3};
    const bool mine = d.u.set_global(0, seed, kNan);
    std::int64_t owner[1] = {mine ? comm.rank()
                                  : std::numeric_limits<std::int64_t>::max()};
    comm.allreduce(std::span<std::int64_t>(owner), smpi::ReduceOp::Min);

    ir::CompileOptions opts;
    opts.mode = mode;
    Operator op({d.eq}, opts);
    op.set_default_backend(backend);
    const auto run = op.apply({.time_m = 0,
                               .time_M = 3,
                               .scalars = {{"dt", 1e-3}},
                               .health_interval = 1,
                               .on_nan = health::OnNan::Record});

    // Every rank holds the same reduced summary.
    EXPECT_FALSE(run.health.healthy());
    EXPECT_EQ(run.health.first_bad_step, 0);
    EXPECT_EQ(run.health.first_bad_rank, static_cast<int>(owner[0]));
    EXPECT_EQ(run.health.first_bad_field, "u");
    EXPECT_EQ(run.health.checks, 4);
    EXPECT_GT(run.health.nan_points, 0);
    ASSERT_FALSE(run.health.series.empty());
    EXPECT_TRUE(run.health.series.front().bad());
  });
}

INSTANTIATE_TEST_SUITE_P(
    PatternsOrdersBackends, SeededNan,
    ::testing::Combine(::testing::Values(ir::MpiMode::Basic,
                                         ir::MpiMode::Diagonal,
                                         ir::MpiMode::Full),
                       ::testing::Values(2, 4),
                       ::testing::Values(core::Backend::Interpret,
                                         core::Backend::Jit)));

TEST(Health, CleanRunStaysHealthyAndSamplesNorms) {
  SKIP_WITHOUT_OBS();
  const Grid g({8, 8}, {1.0, 1.0});
  Diffusion d(g);
  d.u.fill(1.0F);
  Operator op({d.eq});
  const auto run = op.apply({.time_m = 0,
                             .time_M = 5,
                             .scalars = {{"dt", 1e-3}},
                             .health_interval = 2});
  EXPECT_TRUE(run.health.healthy());
  // time % 2 == 0 at steps 0, 2, 4.
  EXPECT_EQ(run.health.checks, 3);
  EXPECT_EQ(run.health.nan_points, 0);
  ASSERT_EQ(run.health.series.size(), 3U);
  std::vector<std::int64_t> steps;
  for (const health::Sample& s : run.health.series) {
    steps.push_back(s.step);
    EXPECT_EQ(s.field, "u");
    EXPECT_FALSE(s.bad());
    EXPECT_GT(s.l2, 0.0);
    EXPECT_LE(s.min, s.max);
    EXPECT_EQ(s.first_bad_rank, -1);
  }
  EXPECT_EQ(steps, (std::vector<std::int64_t>{0, 2, 4}));
}

TEST(Health, GhostNansBeyondStencilRadiusAreNotReported) {
  // Space order 4 (stencil radius 2) on a serial grid: a NaN planted in
  // the halo at depth 3 is outside every stencil's reach and outside
  // the owned interior the health kernels reduce over — the run must
  // stay healthy and the result must be untouched.
  const Grid g({8, 8}, {1.0, 1.0});
  const int steps = 3;
  std::vector<float> clean;
  {
    Diffusion d(g, /*so=*/4);
    d.u.fill(1.0F);
    Operator op({d.eq});
    (void)op.apply({.time_m = 0,
                    .time_M = steps - 1,
                    .scalars = {{"dt", 1e-3}}});
    clean = d.u.gather(steps % d.u.time_buffers());
  }
  Diffusion d(g, /*so=*/4);
  d.u.fill(1.0F);
  const std::vector<std::int64_t> ghost{-3, 4};
  d.u.at_local(0, ghost) = kNan;
  Operator op({d.eq});
  const auto run = op.apply({.time_m = 0,
                             .time_M = steps - 1,
                             .scalars = {{"dt", 1e-3}},
                             .health_interval = 1});
  EXPECT_TRUE(run.health.healthy());
  EXPECT_EQ(run.health.nan_points, 0);
  const auto got = d.u.gather(steps % d.u.time_buffers());
  ASSERT_EQ(got.size(), clean.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], clean[i]) << "at " << i;
  }
}

TEST(Health, ChecksAreBitwiseNeutralToSolverOutput) {
  SKIP_WITHOUT_OBS();
  for (const core::Backend backend :
       {core::Backend::Interpret, core::Backend::Jit}) {
    const Grid g({12, 12}, {1.0, 1.0});
    const int steps = 6;
    std::vector<float> without;
    {
      Diffusion d(g);
      const std::vector<std::int64_t> lo{1, 1};
      const std::vector<std::int64_t> hi{11, 11};
      d.u.fill_global_box(0, lo, hi, 1.0F);
      Operator op({d.eq});
      op.set_default_backend(backend);
      (void)op.apply({.time_m = 0,
                      .time_M = steps - 1,
                      .scalars = {{"dt", 1e-3}}});
      without = d.u.gather(steps % d.u.time_buffers());
    }
    Diffusion d(g);
    const std::vector<std::int64_t> lo{1, 1};
    const std::vector<std::int64_t> hi{11, 11};
    d.u.fill_global_box(0, lo, hi, 1.0F);
    Operator op({d.eq});
    op.set_default_backend(backend);
    const auto run = op.apply({.time_m = 0,
                               .time_M = steps - 1,
                               .scalars = {{"dt", 1e-3}},
                               .health_interval = 1});
    EXPECT_EQ(run.health.checks, steps);
    const auto with = d.u.gather(steps % d.u.time_buffers());
    ASSERT_EQ(with.size(), without.size());
    // Bitwise, not approximate: the reductions must only read.
    EXPECT_EQ(std::memcmp(with.data(), without.data(),
                          with.size() * sizeof(float)),
              0);
  }
}

TEST(Health, HealthKernelIsVisibleInGeneratedSource) {
  SKIP_WITHOUT_OBS();
  const Grid g({8, 8}, {1.0, 1.0});
  Diffusion d(g);
  Operator op({d.eq});
  const std::string src = op.ccode();
  EXPECT_NE(src.find("jitfd_health_every"), std::string::npos);
  EXPECT_NE(src.find("jitfd_hc_nan"), std::string::npos);
  EXPECT_NE(src.find("jitfd_hc_l2"), std::string::npos);
  EXPECT_NE(src.find("ops->health"), std::string::npos);
  EXPECT_NE(src.find("ops->step"), std::string::npos);
}

TEST(Health, OnNanIgnoreSamplesButDoesNotDump) {
  SKIP_WITHOUT_OBS();
  obs::flight::reset_for_testing();
  const Grid g({8, 8}, {1.0, 1.0});
  Diffusion d(g);
  d.u.fill(1.0F);
  const std::vector<std::int64_t> seed{4, 4};
  ASSERT_TRUE(d.u.set_global(0, seed, kNan));
  Operator op({d.eq});
  const auto run = op.apply({.time_m = 0,
                             .time_M = 2,
                             .scalars = {{"dt", 1e-3}},
                             .health_interval = 1,
                             .on_nan = health::OnNan::Ignore});
  EXPECT_FALSE(run.health.healthy());  // Sampled...
  EXPECT_FALSE(obs::flight::dumped());  // ...but no bundle, no throw.
}

TEST(Health, AbortDumpThrowsOnEveryRankAndWritesValidBundle) {
  SKIP_WITHOUT_OBS();
  char dir_template[] = "/tmp/jitfd_flight_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir(dir_template);
  ::setenv("JITFD_FLIGHT_DIR", dir.c_str(), 1);
  obs::flight::reset_for_testing();

  std::int64_t owner = -1;
  try {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({16, 16}, {1.0, 1.0}, comm);
      Diffusion d(g);
      d.u.fill(1.0F);
      const std::vector<std::int64_t> seed{12, 12};
      const bool mine = d.u.set_global(0, seed, kNan);
      std::int64_t own[1] = {mine ? comm.rank()
                                  : std::numeric_limits<std::int64_t>::max()};
      comm.allreduce(std::span<std::int64_t>(own), smpi::ReduceOp::Min);
      if (comm.rank() == 0) {
        owner = own[0];
      }
      ir::CompileOptions opts;
      opts.mode = ir::MpiMode::Basic;
      Operator op({d.eq}, opts);
      (void)op.apply({.time_m = 0,
                      .time_M = 3,
                      .scalars = {{"dt", 1e-3}},
                      .trace = true,
                      .health_interval = 1,
                      .on_nan = health::OnNan::AbortDump});
      FAIL() << "apply() should have thrown DivergenceError";
    });
    FAIL() << "smpi::run should have rethrown DivergenceError";
  } catch (const health::DivergenceError& e) {
    EXPECT_EQ(e.step(), 0);
    EXPECT_EQ(e.rank(), static_cast<int>(owner));
    EXPECT_EQ(e.field(), "u");
    ASSERT_FALSE(e.dump_path().empty());

    const std::string bundle = slurp(e.dump_path());
    ASSERT_FALSE(bundle.empty());
    const obs::SchemaCheck check = obs::validate(bundle, obs::flight_schema());
    ASSERT_TRUE(check.ok) << check.error;
    const obs::JsonValue& f = *check.doc.find("flight");
    EXPECT_EQ(f.find("reason")->str, "nan_detected");
    EXPECT_EQ(f.find("rank")->num, static_cast<double>(owner));
    EXPECT_EQ(f.find("step")->num, 0.0);
    EXPECT_GE(f.find("health")->arr.size(), 1U);
    // The traced run's halo lifecycle lands in the bundle's trace tail.
    int halo_updates = 0;
    for (const obs::JsonValue& row : f.find("trace")->arr) {
      halo_updates += row.find("name")->str == "halo.update" ? 1 : 0;
    }
    EXPECT_GT(halo_updates, 0);
    std::remove(e.dump_path().c_str());
  }
  ::unsetenv("JITFD_FLIGHT_DIR");
  ::rmdir(dir.c_str());
  obs::flight::reset_for_testing();
}

TEST(Health, InjectNanHookPoisonsConfiguredRankAndStep) {
  SKIP_WITHOUT_OBS();
  // The CI self-test's fault injector: JITFD_INJECT_NAN=rank:step
  // poisons one interior point of the checked field at the top of that
  // step on that rank; the same step's check must catch it.
  ::setenv("JITFD_INJECT_NAN", "2:1", 1);
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    Diffusion d(g);
    d.u.fill(1.0F);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    Operator op({d.eq}, opts);
    const auto run = op.apply({.time_m = 0,
                               .time_M = 3,
                               .scalars = {{"dt", 1e-3}},
                               .health_interval = 1,
                               .on_nan = health::OnNan::Record});
    EXPECT_FALSE(run.health.healthy());
    EXPECT_EQ(run.health.first_bad_step, 1);
    EXPECT_EQ(run.health.first_bad_rank, 2);
  });
  ::unsetenv("JITFD_INJECT_NAN");
}

TEST(Health, FlightDumpToMissingDirectoryReportsNoPath) {
  char dir_template[] = "/tmp/jitfd_flight_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string missing = std::string(dir_template) + "/missing";
  ::setenv("JITFD_FLIGHT_DIR", missing.c_str(), 1);
  obs::flight::reset_for_testing();
  // No bundle can be written, so no path is reported, now or later.
  EXPECT_EQ(obs::flight::dump("test", 0, 0, "unwritable"), "");
  EXPECT_TRUE(obs::flight::dumped());
  EXPECT_EQ(obs::flight::dump("test", 0, 0, "again"), "");
  EXPECT_NE(::access((missing + "/jitfd_flight.json").c_str(), F_OK), 0);
  ::unsetenv("JITFD_FLIGHT_DIR");
  ::rmdir(dir_template);
  obs::flight::reset_for_testing();
}

TEST(Health, OnNanPolicyParsesAndPrints) {
  EXPECT_EQ(health::on_nan_from_string("ignore"), health::OnNan::Ignore);
  EXPECT_EQ(health::on_nan_from_string("record"), health::OnNan::Record);
  EXPECT_EQ(health::on_nan_from_string("abort_dump"),
            health::OnNan::AbortDump);
  EXPECT_EQ(health::on_nan_from_string("abort"), health::OnNan::AbortDump);
  EXPECT_THROW(health::on_nan_from_string("explode"), std::invalid_argument);
  EXPECT_STREQ(health::to_string(health::OnNan::Ignore), "ignore");
  EXPECT_STREQ(health::to_string(health::OnNan::Record), "record");
  EXPECT_STREQ(health::to_string(health::OnNan::AbortDump), "abort_dump");
}

TEST(Health, HealthIntervalZeroRunsNoChecks) {
  const Grid g({8, 8}, {1.0, 1.0});
  Diffusion d(g);
  d.u.fill(1.0F);
  Operator op({d.eq});
  const auto run =
      op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", 1e-3}}});
  EXPECT_EQ(run.health.checks, 0);
  EXPECT_TRUE(run.health.healthy());
  EXPECT_TRUE(run.health.series.empty());
}

}  // namespace
