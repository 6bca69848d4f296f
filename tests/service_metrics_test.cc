// ServiceMetrics as the registry renders it (EmitServiceMetrics +
// EmitProbeCache into MetricsRegistry::JsonSnapshot), including the
// zero-lookup probe-cache regression: an empty cache must render hit rate 0
// inside *valid* JSON (a NaN here used to serialize as a bare `nan` token no
// parser accepts).

#include "service/metrics.h"

#include <string>

#include "gtest/gtest.h"
#include "obs/metrics_registry.h"
#include "service/prometheus.h"
#include "util/json.h"
#include "webdb/probe_cache.h"

namespace aimq {
namespace {

// The registry JSON of \p metrics (plus the probe-cache families when
// \p cache_stats is given), dumped and parsed back.
Json RegistryJson(const ServiceMetrics& metrics,
                  const ProbeCacheStats* cache_stats = nullptr) {
  obs::MetricsRegistry registry;
  registry.AddCollector([&](obs::MetricsRegistry::Emitter* out) {
    EmitServiceMetrics(metrics, out);
    if (cache_stats != nullptr) EmitProbeCache(*cache_stats, out);
  });
  const std::string dump = registry.JsonSnapshot().Dump();
  EXPECT_EQ(dump.find("nan"), std::string::npos) << dump;
  auto parsed = Json::Parse(dump);
  EXPECT_TRUE(parsed.ok()) << "snapshot did not round-trip: " << dump;
  return parsed.ok() ? parsed.TakeValue() : Json::Null();
}

TEST(ServiceMetricsTest, ZeroLookupCacheSnapshotIsValidJsonWithZeroHitRate) {
  ServiceMetrics metrics;
  ProbeCacheStats stats;  // no lookups yet
  const Json snapshot = RegistryJson(metrics, &stats);
  const Json* hit_rate = snapshot.Find("aimq_probe_cache_hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  ASSERT_TRUE(hit_rate->is_number());
  EXPECT_DOUBLE_EQ(hit_rate->AsNum(), 0.0);
}

TEST(ServiceMetricsTest, EmptyRegistrySnapshotRoundTrips) {
  ServiceMetrics metrics;
  const Json snapshot = RegistryJson(metrics);
  ASSERT_TRUE(snapshot.is_object());
  EXPECT_DOUBLE_EQ(*snapshot.GetNum("aimq_requests_accepted_total"), 0.0);
  EXPECT_DOUBLE_EQ(*snapshot.GetNum("aimq_request_rejection_rate"), 0.0);
}

TEST(ServiceMetricsTest, SnapshotExposesPhaseHistograms) {
  ServiceMetrics metrics;
  metrics.OnPhases(0.001, 0.005, 0.0002);
  metrics.OnPhases(0.002, 0.007, 0.0003);
  const Json snapshot = RegistryJson(metrics);
  for (const char* phase :
       {"aimq_phase_base_set_seconds", "aimq_phase_relax_seconds",
        "aimq_phase_rank_seconds"}) {
    const Json* h = snapshot.Find(phase);
    ASSERT_NE(h, nullptr) << phase;
    EXPECT_DOUBLE_EQ(h->Find("count")->AsNum(), 2.0) << phase;
    EXPECT_GT(h->Find("p95")->AsNum(), 0.0) << phase;
  }
  // Phase accessors track the same distributions.
  EXPECT_EQ(metrics.phase_base_set().Snapshot().count, 2u);
  EXPECT_EQ(metrics.phase_relax().Snapshot().count, 2u);
  EXPECT_EQ(metrics.phase_rank().Snapshot().count, 2u);
}

TEST(ServiceMetricsTest, InFlightClampsAtZero) {
  ServiceMetrics metrics;
  metrics.OnCompleted(0.0, 0.001);  // completed without a matching accept
  EXPECT_EQ(metrics.InFlight(), 0u);
  metrics.OnAccepted();
  metrics.OnAccepted();
  EXPECT_EQ(metrics.InFlight(), 1u);
}

}  // namespace
}  // namespace aimq
