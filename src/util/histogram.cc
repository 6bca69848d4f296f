#include "util/histogram.h"

#include <algorithm>
#include <cmath>

namespace aimq {

namespace {

constexpr double kFirstUpperBound = 1e-6;  // bucket 0: [0, 1µs)
constexpr double kGrowth = 1.25;

}  // namespace

double LatencyHistogram::BucketUpperBound(size_t i) {
  return kFirstUpperBound * std::pow(kGrowth, static_cast<double>(i));
}

size_t LatencyHistogram::BucketIndex(double seconds) {
  if (seconds < kFirstUpperBound) return 0;
  // seconds >= 1µs: index such that upper_bound(index-1) <= s < upper_bound.
  const double idx =
      std::floor(std::log(seconds / kFirstUpperBound) / std::log(kGrowth)) + 1;
  if (idx >= static_cast<double>(kNumBuckets)) return kNumBuckets - 1;
  return static_cast<size_t>(idx);
}

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  const uint64_t nanos = static_cast<uint64_t>(seconds * 1e9);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  buckets_[BucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  uint64_t observed = min_nanos_.load(std::memory_order_relaxed);
  while (nanos < observed &&
         !min_nanos_.compare_exchange_weak(observed, nanos,
                                           std::memory_order_relaxed)) {
  }
  observed = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > observed &&
         !max_nanos_.compare_exchange_weak(observed, nanos,
                                           std::memory_order_relaxed)) {
  }
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the answering observation, at least 1 so q=0 reports the first
  // non-empty bucket (the minimum's bucket), not an empty leading one.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t seen = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    seen += bucket_counts[i];
    if (seen >= target) {
      return std::min(LatencyHistogram::BucketUpperBound(i), max_seconds);
    }
  }
  return max_seconds;
}

HistogramSnapshot LatencyHistogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) / 1e9;
  const uint64_t min_nanos = min_nanos_.load(std::memory_order_relaxed);
  snap.min_seconds =
      min_nanos == UINT64_MAX ? 0.0 : static_cast<double>(min_nanos) / 1e9;
  snap.max_seconds =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) / 1e9;
  snap.bucket_counts.reserve(kNumBuckets);
  for (const auto& b : buckets_) {
    snap.bucket_counts.push_back(b.load(std::memory_order_relaxed));
  }
  return snap;
}

}  // namespace aimq
