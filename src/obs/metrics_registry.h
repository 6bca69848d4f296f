// MetricsRegistry: the engine-wide metric registry, and the only way
// metrics leave the process. `GET /metrics` renders it as Prometheus text;
// `GET /metrics.json`, `{"op":"stats"}` and `{"op":"metrics"}` render the
// same families as JSON, and the benches embed that JSON in their --json=
// baselines.
//
// Every subsystem keeps its native accounting — ServiceMetrics' atomics and
// LatencyHistograms, ProbeCache's per-stripe stats, BlockCache::Stats,
// per-shard probe snapshots, SIMD dispatch counters — and registers a pull
// collector: a callback invoked at Collect() time that emits point-in-time
// samples through an Emitter. Nothing is pushed into the registry on a hot
// path; the busiest counters (probe-cache stripes, bumped under the stripe
// lock) are read only at scrape time, so scraping never adds cross-core
// cache-line traffic to a query.
//
// Collect() renders the collectors into one list of FamilySnapshots (name,
// help, kind, labelled samples), which is the single source for the
// Prometheus text exposition (escaped label values, # HELP / # TYPE for
// every family, cumulative histogram buckets) and for the JSON snapshot.
//
// Thread model: AddCollector and Collect() serialize on one registry mutex.
// Collect() under concurrent updates has torn-snapshot semantics (a counter
// may lag another by a few updates, never corrupt) — the same contract
// LatencyHistogram gives.

#ifndef AIMQ_OBS_METRICS_REGISTRY_H_
#define AIMQ_OBS_METRICS_REGISTRY_H_

#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/json.h"

namespace aimq {
namespace obs {

/// Label key/value pairs of one sample, in render order.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One sample of a family: labels plus a scalar value (counter/gauge) or a
/// full-resolution histogram snapshot (histogram families, in seconds).
struct MetricSample {
  MetricLabels labels;
  double value = 0.0;
  HistogramSnapshot histogram;  ///< histogram families only
};

/// One metric family as of a Collect() call.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<MetricSample> samples;
};

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string EscapePrometheusLabel(const std::string& value);

/// Renders families as Prometheus text exposition format 0.0.4: one
/// # HELP / # TYPE pair per family, escaped label values, cumulative
/// histogram buckets ending at +Inf. Histograms are coarsened to every 8th
/// of LatencyHistogram's 96 geometric bounds (12 buckets + +Inf); _sum and
/// _count stay exact. Non-finite scalar values render as 0.
std::string RenderPrometheusText(const std::vector<FamilySnapshot>& families);

/// \brief Central labelled metric registry over pull collectors (see file
/// comment).
class MetricsRegistry {
 public:
  /// Sample sink handed to pull collectors. Append-only; an emitted family
  /// name that matches an already-collected family merges its samples into
  /// it (first emission wins the help text and kind).
  class Emitter {
   public:
    void Counter(const std::string& name, const std::string& help,
                 double value, MetricLabels labels = {});
    void Gauge(const std::string& name, const std::string& help, double value,
               MetricLabels labels = {});
    void Histogram(const std::string& name, const std::string& help,
                   HistogramSnapshot snapshot, MetricLabels labels = {});

   private:
    friend class MetricsRegistry;
    explicit Emitter(std::vector<FamilySnapshot>* out) : out_(out) {}
    void Append(const std::string& name, const std::string& help,
                MetricKind kind, MetricSample sample);
    std::vector<FamilySnapshot>* out_;
  };

  using Collector = std::function<void(Emitter*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a pull collector, run on every Collect() under the registry
  /// lock. Collectors must not call back into this registry.
  void AddCollector(Collector collector);

  /// One point-in-time snapshot: collector-emitted families in first-
  /// emission order, merged by name.
  std::vector<FamilySnapshot> Collect() const;

  /// RenderPrometheusText(Collect()) — the text exposition.
  std::string PrometheusText() const;

  /// Collect() as one JSON object keyed by family name, with the same
  /// values as PrometheusText() (non-finite scalars render as 0). Scalar
  /// families with a single unlabelled sample flatten to a number;
  /// labelled families render as arrays of {<labels...>,"value":v};
  /// histograms as {"count":..,"sum":..,"p50":..,"p95":..,"p99":..,
  /// "max":..} in seconds, percentiles over all 96 buckets
  /// (HistogramSnapshot::Percentile). The mean is sum / count.
  Json JsonSnapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Collector> collectors_;
};

}  // namespace obs
}  // namespace aimq

#endif  // AIMQ_OBS_METRICS_REGISTRY_H_
