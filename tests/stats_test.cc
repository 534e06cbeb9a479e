// Telemetry-layer tests: the log-scale Histogram's bounded memory and
// quantile behaviour, and MetricsRegistry's per-phase delta snapshots.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/stats.h"

namespace pepper {
namespace {

TEST(HistogramTest, MemoryIsBucketsNotSamples) {
  Histogram h;
  const size_t empty_bytes = h.MemoryBytes();
  // The whole state must be inline (std::array, no heap): a million samples
  // cannot change the footprint, which is what makes paper-scale long-churn
  // runs measurable.
  for (int i = 0; i < 1000000; ++i) {
    h.Add(1e-6 * static_cast<double>(i % 100000));
  }
  EXPECT_EQ(h.count(), 1000000u);
  EXPECT_EQ(h.MemoryBytes(), empty_bytes);
  EXPECT_EQ(h.MemoryBytes(), sizeof(Histogram));
  // Constant overhead beyond the bucket array: the exact-sum accumulator
  // (34 limbs) and the sample count.  Still O(buckets), independent of
  // sample count.
  static_assert(sizeof(Histogram) <
                    (Histogram::kBucketCount + 48) * sizeof(uint64_t),
                "histogram footprint must stay O(buckets)");
}

TEST(HistogramTest, MeanIsExactAndQuantilesApproximate) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(0.001 * i);  // 1ms .. 1s uniform
  EXPECT_NEAR(h.mean(), 0.5005, 1e-9);  // tracked via exact sum
  // Log-bucketed quantiles: within one bucket (~33% relative at 8/decade).
  EXPECT_NEAR(h.Percentile(0.5), 0.5, 0.5 * 0.35);
  EXPECT_NEAR(h.Percentile(0.95), 0.95, 0.95 * 0.35);
  EXPECT_LE(h.min(), 0.001);
  EXPECT_GE(h.max(), 1.0);
  EXPECT_LE(h.Percentile(0.0), h.Percentile(0.5));
  EXPECT_LE(h.Percentile(0.5), h.Percentile(1.0));
}

TEST(HistogramTest, ZeroAndOutOfRangeSamplesLandInEdgeBuckets) {
  Histogram h;
  h.Add(0.0);
  h.Add(1e12);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::kBucketCount - 1), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
}

TEST(HistogramTest, MergeAndDeltaAreBucketwise) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(0.01);
  for (int i = 0; i < 50; ++i) b.Add(0.1);
  Histogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), 150u);
  EXPECT_NEAR(merged.sum(), 100 * 0.01 + 50 * 0.1, 1e-9);

  // Delta recovers b from (a+b) - a: the per-phase mechanism.
  Histogram delta = merged.DeltaSince(a);
  EXPECT_EQ(delta.count(), 50u);
  EXPECT_NEAR(delta.sum(), 5.0, 1e-9);
  EXPECT_NEAR(delta.Percentile(0.5), 0.1, 0.1 * 0.35);

  merged.Clear();
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_DOUBLE_EQ(merged.mean(), 0.0);
}

TEST(MetricsRegistryTest, PhasesSeeOnlyTheirOwnDeltas) {
  MetricsHub hub;
  MetricsRegistry registry(&hub);

  registry.BeginPhase("one");
  hub.RecordLatency("op", 0.01);
  hub.RecordLatency("op", 0.01);
  hub.counters().Inc("events", 7);
  registry.EndPhase(1.0);

  // Traffic between phases (probe settle) is excluded from both sides.
  hub.RecordLatency("op", 0.5);
  hub.counters().Inc("events", 100);

  registry.BeginPhase("two");
  hub.RecordLatency("op", 0.02);
  hub.counters().Inc("events", 3);
  registry.EndPhase(2.0);

  ASSERT_EQ(registry.phases().size(), 2u);
  const auto* one = registry.FindPhase("one");
  const auto* two = registry.FindPhase("two");
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(one->FindSeries("op")->count(), 2u);
  EXPECT_NEAR(one->FindSeries("op")->sum(), 0.02, 1e-9);
  EXPECT_EQ(one->Counter("events"), 7u);
  EXPECT_EQ(two->FindSeries("op")->count(), 1u);
  EXPECT_NEAR(two->FindSeries("op")->sum(), 0.02, 1e-9);
  EXPECT_EQ(two->Counter("events"), 3u);
  EXPECT_DOUBLE_EQ(two->sim_seconds, 2.0);
}

TEST(MetricsRegistryTest, SeriesCreatedMidPhaseAreCaptured) {
  MetricsHub hub;
  MetricsRegistry registry(&hub);
  registry.BeginPhase("p");
  hub.RecordLatency("new_series", 0.25);  // did not exist at BeginPhase
  registry.EndPhase(1.0);
  const auto* p = registry.FindPhase("p");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(p->FindSeries("new_series"), nullptr);
  EXPECT_EQ(p->FindSeries("new_series")->count(), 1u);
}

TEST(MetricsRegistryTest, CsvIsDeterministicAndComplete) {
  MetricsHub hub;
  MetricsRegistry registry(&hub);
  registry.BeginPhase("alpha");
  hub.RecordLatency("lat", 0.125);
  hub.counters().Inc("cnt", 42);
  registry.EndPhase(3.0);

  const std::string csv = registry.DumpCsv();
  EXPECT_NE(csv.find("phase,metric,kind,count,mean,p50,p95,p99,max,value"),
            std::string::npos);
  EXPECT_NE(csv.find("alpha,lat,histogram,1,0.125"), std::string::npos);
  EXPECT_NE(csv.find("alpha,cnt,counter,,,,,,,42"), std::string::npos);
  EXPECT_EQ(csv, registry.DumpCsv());
  EXPECT_EQ(csv, MetricsRegistry::CsvOf(registry.phases()));
}

}  // namespace
}  // namespace pepper
