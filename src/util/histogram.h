// LatencyHistogram: lock-free latency accounting for the query service, and
// the one histogram type behind every metrics export.
//
// Geometric buckets (×1.25 per bucket from 1µs) cover 1µs..~2000s in 96
// buckets, bounding any percentile estimate's relative error at 25% — enough
// to tell a 2ms p50 from a 200ms p99, which is what the serving metrics are
// for. Record() touches only atomics, so every worker thread records without
// coordination; Snapshot() is a concurrent-safe read with torn-snapshot
// semantics (counts may lag each other by a few records, never corrupt).
// Percentiles are computed in one place, HistogramSnapshot::Percentile, over
// all 96 buckets; the registry's JSON summaries and the benches use it, and
// only the Prometheus renderer coarsens the buckets (to every 8th bound).

#ifndef AIMQ_UTIL_HISTOGRAM_H_
#define AIMQ_UTIL_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace aimq {

/// Plain-data copy of a histogram's state (bucket counts + aggregates).
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum_seconds = 0.0;
  double min_seconds = 0.0;  ///< 0 when count == 0
  double max_seconds = 0.0;
  std::vector<uint64_t> bucket_counts;

  double MeanSeconds() const {
    return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
  }

  /// Approximate value at quantile \p q in [0,1] (0.5 = median): the upper
  /// bound of the bucket holding the target rank, clamped to the observed
  /// max so a single-value histogram reports that value, not a bucket edge.
  /// The max itself when the buckets hold fewer than the target rank (a torn
  /// snapshot); 0 when empty.
  double Percentile(double q) const;
};

/// \brief Thread-safe histogram of durations in seconds.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 96;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one duration. Negative durations clamp to 0.
  void Record(double seconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Snapshot().Percentile(q).
  double Percentile(double q) const { return Snapshot().Percentile(q); }

  /// Copies the current state (concurrent Record()s may or may not be seen).
  HistogramSnapshot Snapshot() const;

  /// Upper bound in seconds of bucket \p i (shared with snapshot consumers).
  static double BucketUpperBound(size_t i);

 private:
  static size_t BucketIndex(double seconds);

  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
  std::atomic<uint64_t> min_nanos_{UINT64_MAX};
  std::atomic<uint64_t> max_nanos_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

}  // namespace aimq

#endif  // AIMQ_UTIL_HISTOGRAM_H_
