// Metrics registry tests: log2 histogram bucket boundaries, help-text
// registration, and the JSON exporter with its schema table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "obs/json_check.h"
#include "obs/metrics.h"

namespace {

namespace metrics = jitfd::obs::metrics;
namespace obs = jitfd::obs;
using metrics::Histogram;

class MetricsEnabled : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    if (!metrics::enabled()) {
      GTEST_SKIP() << "built with JITFD_OBS=OFF";
    }
  }
  void TearDown() override { metrics::set_enabled(false); }
};

TEST_F(MetricsEnabled, HistogramUpperBoundsDoubleFromBase) {
  EXPECT_DOUBLE_EQ(Histogram::upper_bound(0), Histogram::kBucketBase);
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::upper_bound(i),
                     2.0 * Histogram::upper_bound(i - 1))
        << "bucket " << i;
  }
  EXPECT_TRUE(std::isinf(Histogram::upper_bound(Histogram::kBuckets - 1)));
}

TEST_F(MetricsEnabled, HistogramBucketBoundariesAreInclusive) {
  Histogram h;
  // Exactly on a bucket's upper bound lands in that bucket (le
  // semantics); one ulp above lands in the next.
  for (const int i : {0, 5, 13, Histogram::kBuckets - 2}) {
    h.reset();
    const double ub = Histogram::upper_bound(i);
    h.observe(ub);
    EXPECT_EQ(h.bucket(i), 1U) << "upper bound of bucket " << i;
    h.observe(std::nextafter(ub, std::numeric_limits<double>::infinity()));
    EXPECT_EQ(h.bucket(i + 1), 1U) << "just above bucket " << i;
  }
}

TEST_F(MetricsEnabled, HistogramPlacesValuesByLog2) {
  Histogram h;
  // 1.0 s with base 1e-6: 1e-6 * 2^19 ~ 0.52 < 1.0 <= 1e-6 * 2^20 ~ 1.05.
  h.observe(1.0);
  EXPECT_EQ(h.bucket(20), 1U);
  // At or below the base, including zero and negatives: bucket 0.
  h.observe(Histogram::kBucketBase);
  h.observe(0.0);
  h.observe(-3.5);
  EXPECT_EQ(h.bucket(0), 3U);
  // Beyond the last finite bound: the +Inf overflow bucket.
  h.observe(1e30);
  h.observe(std::numeric_limits<double>::max());
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 2U);
  EXPECT_EQ(h.count(), 6U);
  EXPECT_NEAR(h.sum(), 1.0 + Histogram::kBucketBase + 0.0 - 3.5 + 1e30 +
                           std::numeric_limits<double>::max(),
              std::numeric_limits<double>::max() * 1e-9);
}

TEST_F(MetricsEnabled, HistogramDisabledRecordsNothing) {
  metrics::set_enabled(false);
  Histogram h;
  h.observe(1.0);
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.bucket(20), 0U);
}

TEST_F(MetricsEnabled, HelpTextSticksToTheInstrumentFirstNonEmptyWins) {
  metrics::counter("test.help.sticky", "the original help");
  metrics::counter("test.help.sticky", "a late different help");
  metrics::counter("test.help.late");  // No help: keeps the original.
  metrics::gauge("test.help.filled");  // Registered helpless...
  metrics::gauge("test.help.filled", "filled in later");

  std::string sticky_help;
  std::string filled_help;
  for (const metrics::Snapshot& s : metrics::snapshot()) {
    if (s.name == "test.help.sticky") {
      sticky_help = s.help;
    } else if (s.name == "test.help.filled") {
      filled_help = s.help;
    }
  }
  EXPECT_EQ(sticky_help, "the original help");
  EXPECT_EQ(filled_help, "filled in later");
}

TEST_F(MetricsEnabled, ExportsCarryHelpAndValidate) {
  metrics::counter("test.export.count", "counts test things").add(3);
  metrics::histogram("test.export.lat", "latency of test things")
      .observe(2e-6);

  const std::string json = metrics::to_json();
  EXPECT_NE(json.find("\"help\": \"counts test things\""), std::string::npos);
  const obs::SchemaCheck jcheck = obs::validate(json, obs::metrics_schema());
  EXPECT_TRUE(jcheck.ok) << jcheck.error;
}

TEST(MetricsValidator, HistogramBucketViolationsAreCaught) {
  const auto check = [](const char* buckets) {
    return obs::validate(std::string(R"({"metrics": [{"name": "h", )"
                                     R"("type": "histogram", "count": 2, )"
                                     R"("sum": 1.5, "buckets": )") +
                             buckets + "}]}",
                         obs::metrics_schema());
  };
  EXPECT_TRUE(check(R"([{"le": 1e-06, "count": 1}, {"le": "+Inf", "count": 2}])").ok);
  const obs::SchemaCheck shrinking =
      check(R"([{"le": 1e-06, "count": 2}, {"le": "+Inf", "count": 1}])");
  EXPECT_FALSE(shrinking.ok);
  EXPECT_NE(shrinking.error.find("non-monotone"), std::string::npos)
      << shrinking.error;
  EXPECT_FALSE(check(R"([{"le": "inf", "count": 2}])").ok);
  EXPECT_FALSE(check(R"([{"count": 2}])").ok);
}

}  // namespace
