#include "util/histogram.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/parallel.h"

namespace aimq {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min_seconds, 0.0);
  EXPECT_EQ(snap.max_seconds, 0.0);
  EXPECT_EQ(snap.MeanSeconds(), 0.0);
}

TEST(LatencyHistogramTest, SingleValueClampsPercentilesToObservedMax) {
  LatencyHistogram h;
  h.Record(0.010);  // 10ms
  EXPECT_EQ(h.count(), 1u);
  // Every percentile of a single-value histogram is that value, not the
  // (coarser) bucket upper bound.
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.010);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), 0.010);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndBracketData) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<double>(i) * 1e-4);  // 0.1ms .. 100ms uniform
  }
  const double p50 = h.Percentile(0.50);
  const double p95 = h.Percentile(0.95);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Bucket resolution is 25%: p50 of uniform(0, 100ms) must land near 50ms.
  EXPECT_GT(p50, 0.030);
  EXPECT_LT(p50, 0.070);
  EXPECT_GT(p99, 0.070);
  EXPECT_LE(p99, 0.100);
}

TEST(LatencyHistogramTest, SnapshotAggregatesMatch) {
  LatencyHistogram h;
  h.Record(0.001);
  h.Record(0.003);
  h.Record(0.002);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum_seconds, 0.006, 1e-6);
  EXPECT_NEAR(snap.min_seconds, 0.001, 1e-6);
  EXPECT_NEAR(snap.max_seconds, 0.003, 1e-6);
  EXPECT_NEAR(snap.MeanSeconds(), 0.002, 1e-6);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.bucket_counts) bucket_total += c;
  EXPECT_EQ(bucket_total, 3u);
}

TEST(LatencyHistogramTest, NegativeAndHugeDurationsAreClamped) {
  LatencyHistogram h;
  h.Record(-1.0);     // clamps to 0
  h.Record(1e6);      // lands in the last bucket
  EXPECT_EQ(h.count(), 2u);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.min_seconds, 0.0);
  EXPECT_EQ(snap.bucket_counts.front(), 1u);
  EXPECT_EQ(snap.bucket_counts.back(), 1u);
}

TEST(LatencyHistogramTest, AllSamplesInOverflowBucketQuantiles) {
  // Every observation beyond the last finite bound: quantiles must stay
  // finite and clamp to the observed maximum, not fabricate a bound.
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.Record(1e6);
  EXPECT_EQ(h.count(), 10u);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.bucket_counts.back(), 10u);
  const double p50 = h.Percentile(0.50);
  const double p99 = h.Percentile(0.99);
  EXPECT_TRUE(p50 > 0.0 && p50 <= snap.max_seconds);
  EXPECT_TRUE(p99 > 0.0 && p99 <= snap.max_seconds);
  EXPECT_LE(p50, p99);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllLand) {
  LatencyHistogram h;
  constexpr size_t kPerThread = 5000;
  ParallelFor(8, 8, [&](size_t t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      h.Record(static_cast<double>(t + 1) * 1e-3);
    }
  });
  EXPECT_EQ(h.count(), 8 * kPerThread);
  HistogramSnapshot snap = h.Snapshot();
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.bucket_counts) bucket_total += c;
  EXPECT_EQ(bucket_total, 8 * kPerThread);
  EXPECT_NEAR(snap.min_seconds, 0.001, 1e-6);
  EXPECT_NEAR(snap.max_seconds, 0.008, 1e-6);
}

TEST(LatencyHistogramTest, BucketBoundsGrowGeometrically) {
  EXPECT_NEAR(LatencyHistogram::BucketUpperBound(0), 1e-6, 1e-12);
  for (size_t i = 1; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_NEAR(LatencyHistogram::BucketUpperBound(i) /
                    LatencyHistogram::BucketUpperBound(i - 1),
                1.25, 1e-9);
  }
}

// Percentiles are computed on the snapshot (the JSON summaries and the
// benches read it there), so its edge cases are pinned on hand-built data.
TEST(HistogramSnapshotTest, PercentileEdgeCases) {
  const HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);

  // One observation in bucket 1: every quantile (q=0 included) answers that
  // bucket's upper bound, clamped to the observed max.
  HistogramSnapshot single;
  single.bucket_counts = {0, 1, 0};
  single.count = 1;
  single.sum_seconds = 1.2e-6;
  single.min_seconds = 1.2e-6;
  single.max_seconds = 1.2e-6;
  EXPECT_DOUBLE_EQ(single.Percentile(0.0), 1.2e-6);
  EXPECT_DOUBLE_EQ(single.Percentile(0.5), 1.2e-6);
  EXPECT_DOUBLE_EQ(single.Percentile(1.0), 1.2e-6);
  // Without the clamp the answer is the bucket's upper bound.
  single.max_seconds = 1.0;
  EXPECT_DOUBLE_EQ(single.Percentile(0.5),
                   LatencyHistogram::BucketUpperBound(1));

  // Buckets holding fewer observations than the count (a snapshot torn by a
  // concurrent Record): a rank past them can only report the observed max.
  HistogramSnapshot overflow;
  overflow.bucket_counts = {0, 0};
  overflow.count = 10;
  overflow.sum_seconds = 100.0;
  overflow.max_seconds = 20.0;
  EXPECT_DOUBLE_EQ(overflow.Percentile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(0.99), 20.0);
}

}  // namespace
}  // namespace aimq
