// Unit coverage of the metrics registry: histogram bucket assignment and
// percentile interpolation, counter/gauge semantics, the bucket-bound
// generators, and the JSON export shape (including the regression that
// empty sections serialize as {} rather than null).

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/metrics.hpp"

namespace hp::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, AddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.add(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_EQ(g.value(), 2.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(HistogramTest, RejectsInvalidBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, BucketAssignmentIsUpperBoundInclusive) {
  // Bucket i counts v <= bounds[i]; the final bucket is the overflow.
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0}) h.observe(v);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 2, 2, 1}));
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 17.0);
  EXPECT_DOUBLE_EQ(h.mean(), 17.0 / 7.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroes) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  // 100 observations 0.1 .. 10.0, all inside the first bucket: the p50
  // interpolation lower edge is the tracked min, the upper edge is
  // min(bound, tracked max) = 10.0.
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 1; i <= 100; ++i) h.observe(0.1 * i);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.1 + (10.0 - 0.1) * 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.1);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramTest, PercentileCrossesBuckets) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0
  h.observe(1.5);  // bucket 1
  h.observe(3.0);  // bucket 2
  h.observe(8.0);  // overflow
  // target = 0.5 * 4 = 2 observations: reached exactly at the end of
  // bucket 1, whose range is [bounds[0], bounds[1]] = [1, 2].
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);
  // Quantiles past every finite bound clamp to the tracked max.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
  EXPECT_GE(h.percentile(0.99), 4.0);
  // q = 0 lands in the first occupied bucket at its tracked minimum.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.5);
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(BucketGeneratorsTest, ExponentialBuckets) {
  EXPECT_EQ(exponential_buckets(1.0, 2.0, 3),
            (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_THROW(exponential_buckets(0.0, 2.0, 3), std::invalid_argument);
  EXPECT_THROW(exponential_buckets(1.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(exponential_buckets(1.0, 2.0, 0), std::invalid_argument);
}

TEST(BucketGeneratorsTest, DurationBucketsCoverMicrosecondsToMinutes) {
  const auto bounds = duration_buckets();
  ASSERT_FALSE(bounds.empty());
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_GT(bounds.back(), 60.0);
}

TEST(MetricsRegistryTest, InstrumentsAreStableByName) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {9.0});  // bounds ignored after creation
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, EnabledFlagDefaultsOff) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.enabled());
  reg.set_enabled(true);
  EXPECT_TRUE(reg.enabled());
  reg.set_enabled(false);
  EXPECT_FALSE(reg.enabled());
}

TEST(MetricsRegistryTest, EmptySectionsSerializeAsObjects) {
  // Regression: auto-vivified members start as null; to_json must still
  // emit {} so downstream JSON parsers see objects for all three sections.
  MetricsRegistry reg;
  EXPECT_EQ(reg.to_json().dump(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(MetricsRegistryTest, JsonExportShape) {
  MetricsRegistry reg;
  reg.counter("opt.samples").add(3);
  reg.gauge("pool.queue_depth").add(2.0);
  Histogram& h = reg.histogram("opt.cost_s", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  const std::string json = reg.to_json().dump();
  EXPECT_NE(json.find("\"opt.samples\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.queue_depth\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[1,1,0]"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.histogram("h", {1.0}).observe(0.5);
  reg.reset();
  EXPECT_EQ(reg.counter("c").value(), 0u);
  EXPECT_EQ(reg.histogram("h").count(), 0u);
  const std::string json = reg.to_json().dump();
  EXPECT_NE(json.find("\"c\":0"), std::string::npos) << json;
}

}  // namespace
}  // namespace hp::obs
