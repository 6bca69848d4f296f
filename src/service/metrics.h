// ServiceMetrics: live counters and latency distributions for the query
// service. Everything on the hot path is an atomic or a LatencyHistogram
// record — worker threads account without taking a lock. Nothing here
// renders itself: EmitServiceMetrics (service/prometheus.h) reads the
// accessors at scrape time into the service's obs::MetricsRegistry, which
// answers `GET /metrics`, `GET /metrics.json` and the stats/metrics wire
// ops.

#ifndef AIMQ_SERVICE_METRICS_H_
#define AIMQ_SERVICE_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/histogram.h"

namespace aimq {

/// Per-tenant admission/outcome counters (see ServiceMetrics::TenantSnapshot).
struct TenantCounters {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
};

/// \brief Thread-safe request accounting for one AimqService instance.
class ServiceMetrics {
 public:
  ServiceMetrics() = default;
  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  /// Admission control outcomes.
  void OnAccepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void OnRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }

  /// Per-tenant accounting. Unlike the global counters these take a short
  /// mutex (the tenant map can grow): one uncontended lock per request
  /// outcome, far off the per-probe hot path.
  void OnTenantAccepted(const std::string& tenant);
  void OnTenantRejected(const std::string& tenant);
  void OnTenantCompleted(const std::string& tenant);
  void OnTenantFailed(const std::string& tenant);

  /// Copy of the per-tenant counters, keyed by tenant name (lexicographic).
  std::map<std::string, TenantCounters> TenantSnapshot() const;

  /// One request finished. \p queue_seconds is the time spent waiting for a
  /// worker, \p total_seconds the full submit-to-completion latency.
  void OnCompleted(double queue_seconds, double total_seconds) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    queue_wait_.Record(queue_seconds);
    latency_.Record(total_seconds);
  }

  /// One request finished with a non-OK status (still records latency —
  /// a deadlined request burned real worker time).
  void OnFailed(double queue_seconds, double total_seconds) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    queue_wait_.Record(queue_seconds);
    latency_.Record(total_seconds);
  }

  /// The request completed OK but its top-k was cut short by a deadline or
  /// cancellation (counted in addition to OnCompleted).
  void OnTruncated() { truncated_.fetch_add(1, std::memory_order_relaxed); }

  /// Per-phase engine time of one finished request (the RelaxationStats
  /// phase timers): base-set derivation, relaxation fan-out, similarity
  /// ranking. Answers "was the fleet slow probing or slow scoring?" without
  /// tracing individual requests.
  void OnPhases(double base_set_seconds, double relax_seconds,
                double rank_seconds) {
    phase_base_set_.Record(base_set_seconds);
    phase_relax_.Record(relax_seconds);
    phase_rank_.Record(rank_seconds);
  }

  /// Deepest relaxation level one finished request reached (number of
  /// attributes relaxed simultaneously in its deepest probe). Depths at or
  /// beyond kRelaxDepthBuckets-1 land in the last (overflow) bucket.
  static constexpr size_t kRelaxDepthBuckets = 17;  // depths 0..15, then 16+
  void OnRelaxDepth(uint64_t depth) {
    const size_t bucket = depth < kRelaxDepthBuckets - 1
                              ? static_cast<size_t>(depth)
                              : kRelaxDepthBuckets - 1;
    relax_depth_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  /// Base tuples one finished request expanded, \p reused of them from the
  /// engine's expansion memo. Summed here, per response, so the totals stay
  /// monotone across snapshot publishes (each version has its own engine
  /// and memo).
  void OnExpansions(uint64_t total, uint64_t reused) {
    expansions_memo_hit_.fetch_add(reused, std::memory_order_relaxed);
    expansions_memo_miss_.fetch_add(total - reused,
                                    std::memory_order_relaxed);
  }
  uint64_t expansions_memo_hit() const {
    return expansions_memo_hit_.load(std::memory_order_relaxed);
  }
  uint64_t expansions_memo_miss() const {
    return expansions_memo_miss_.load(std::memory_order_relaxed);
  }

  /// Per-depth request counts (index = depth, last bucket = overflow).
  std::array<uint64_t, kRelaxDepthBuckets> RelaxDepthSnapshot() const {
    std::array<uint64_t, kRelaxDepthBuckets> out{};
    for (size_t i = 0; i < kRelaxDepthBuckets; ++i) {
      out[i] = relax_depth_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  uint64_t failed() const { return failed_.load(std::memory_order_relaxed); }
  uint64_t truncated() const {
    return truncated_.load(std::memory_order_relaxed);
  }

  /// Requests admitted but not yet finished (either queued or in a worker).
  /// Clamped at 0: under concurrent updates the three counters may be read
  /// at slightly different instants.
  uint64_t InFlight() const {
    const uint64_t done = completed() + failed();
    const uint64_t admitted = accepted();
    return admitted > done ? admitted - done : 0;
  }

  /// rejected / (accepted + rejected); 0 before any submission.
  double RejectionRate() const;

  const LatencyHistogram& latency() const { return latency_; }
  const LatencyHistogram& queue_wait() const { return queue_wait_; }
  const LatencyHistogram& phase_base_set() const { return phase_base_set_; }
  const LatencyHistogram& phase_relax() const { return phase_relax_; }
  const LatencyHistogram& phase_rank() const { return phase_rank_; }

 private:
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> truncated_{0};
  LatencyHistogram latency_;
  LatencyHistogram queue_wait_;
  LatencyHistogram phase_base_set_;
  LatencyHistogram phase_relax_;
  LatencyHistogram phase_rank_;
  std::array<std::atomic<uint64_t>, kRelaxDepthBuckets> relax_depth_{};
  std::atomic<uint64_t> expansions_memo_hit_{0};
  std::atomic<uint64_t> expansions_memo_miss_{0};
  mutable std::mutex tenants_mu_;
  std::map<std::string, TenantCounters> tenants_;  // guarded by tenants_mu_
};

}  // namespace aimq

#endif  // AIMQ_SERVICE_METRICS_H_
