// Prometheus text-exposition tests over the Emit* family catalogue: family
// presence, zero-state sanity (no NaN leaks), cumulative bucket semantics,
// and line grammar basics.

#include "service/prometheus.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics_registry.h"
#include "service/metrics.h"
#include "webdb/probe_cache.h"

namespace aimq {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

bool HasLinePrefix(const std::string& text, const std::string& prefix) {
  for (const std::string& line : Lines(text)) {
    if (line.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

// Extracts `<name> <value>` sample values for an exact metric name.
std::vector<double> SampleValues(const std::string& text,
                                 const std::string& name) {
  std::vector<double> out;
  for (const std::string& line : Lines(text)) {
    if (line.compare(0, name.size(), name) == 0 &&
        line.size() > name.size() && line[name.size()] == ' ') {
      out.push_back(std::stod(line.substr(name.size() + 1)));
    }
  }
  return out;
}

// One scrape body from a registry whose collector runs the service, probe-
// cache (when \p cache_stats is given) and tenant Emit* helpers.
std::string ScrapeText(const ServiceMetrics& metrics,
                       const ProbeCacheStats* cache_stats) {
  obs::MetricsRegistry registry;
  registry.AddCollector([&](obs::MetricsRegistry::Emitter* out) {
    EmitServiceMetrics(metrics, out);
    if (cache_stats != nullptr) EmitProbeCache(*cache_stats, out);
    EmitTenants(metrics.TenantSnapshot(), out);
  });
  return registry.PrometheusText();
}

TEST(PrometheusTest, ZeroStateEmitsAllFamiliesWithoutNaN) {
  ServiceMetrics metrics;
  const std::string text = ScrapeText(metrics, nullptr);
  for (const char* family :
       {"aimq_requests_accepted_total", "aimq_requests_rejected_total",
        "aimq_requests_completed_total", "aimq_requests_failed_total",
        "aimq_requests_truncated_total", "aimq_requests_in_flight",
        "aimq_request_rejection_rate", "aimq_request_latency_seconds",
        "aimq_queue_wait_seconds", "aimq_phase_base_set_seconds",
        "aimq_phase_relax_seconds", "aimq_phase_rank_seconds"}) {
    EXPECT_TRUE(HasLinePrefix(text, std::string("# TYPE ") + family))
        << "missing family " << family;
  }
  // No probe-cache stats given: those families must be absent.
  EXPECT_FALSE(HasLinePrefix(text, "# TYPE aimq_probe_cache"));
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(PrometheusTest, ExpansionCountersSplitByMemoOutcome) {
  ServiceMetrics metrics;
  metrics.OnExpansions(20, 15);
  metrics.OnExpansions(10, 0);
  const std::string text = ScrapeText(metrics, nullptr);
  EXPECT_EQ(SampleValues(text, "aimq_relax_expansions_total{memo=\"hit\"}"),
            std::vector<double>{15.0});
  EXPECT_EQ(SampleValues(text, "aimq_relax_expansions_total{memo=\"miss\"}"),
            std::vector<double>{15.0});
}

TEST(PrometheusTest, CountersReflectMetricsState) {
  ServiceMetrics metrics;
  metrics.OnAccepted();
  metrics.OnAccepted();
  metrics.OnRejected();
  metrics.OnCompleted(0.001, 0.010);
  metrics.OnRelaxDepth(2);
  metrics.OnRelaxDepth(40);  // past the last depth: the overflow sample
  const std::string text = ScrapeText(metrics, nullptr);
  EXPECT_EQ(
      SampleValues(text, "aimq_relax_depth_requests_total{depth=\"2\"}"),
      std::vector<double>{1.0});
  EXPECT_EQ(
      SampleValues(text, "aimq_relax_depth_requests_total{depth=\"16+\"}"),
      std::vector<double>{1.0});
  EXPECT_EQ(
      SampleValues(text, "aimq_relax_depth_requests_total{depth=\"15\"}"),
      std::vector<double>{0.0});
  EXPECT_EQ(SampleValues(text, "aimq_requests_accepted_total"),
            std::vector<double>{2.0});
  EXPECT_EQ(SampleValues(text, "aimq_requests_rejected_total"),
            std::vector<double>{1.0});
  EXPECT_EQ(SampleValues(text, "aimq_requests_completed_total"),
            std::vector<double>{1.0});
  const auto rejection = SampleValues(text, "aimq_request_rejection_rate");
  ASSERT_EQ(rejection.size(), 1u);
  EXPECT_NEAR(rejection[0], 1.0 / 3.0, 1e-9);
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndEndAtCount) {
  ServiceMetrics metrics;
  metrics.OnCompleted(0.0001, 0.001);
  metrics.OnCompleted(0.0001, 0.010);
  metrics.OnCompleted(0.0001, 0.100);
  const std::string text = ScrapeText(metrics, nullptr);
  // Bucket values never decrease as le grows.
  std::vector<double> buckets;
  for (const std::string& line : Lines(text)) {
    const std::string prefix = "aimq_request_latency_seconds_bucket{le=";
    if (line.compare(0, prefix.size(), prefix) == 0) {
      const size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos);
      buckets.push_back(std::stod(line.substr(space + 1)));
    }
  }
  ASSERT_GE(buckets.size(), 2u);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i], buckets[i - 1]) << "bucket " << i << " decreased";
  }
  // The +Inf bucket and _count agree with the number of observations.
  EXPECT_DOUBLE_EQ(buckets.back(), 3.0);
  EXPECT_EQ(SampleValues(text, "aimq_request_latency_seconds_count"),
            std::vector<double>{3.0});
  const auto sum = SampleValues(text, "aimq_request_latency_seconds_sum");
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_NEAR(sum[0], 0.111, 0.111 * 0.30);  // geometric buckets quantize
}

TEST(PrometheusTest, ProbeCacheFamiliesWhenStatsGiven) {
  ServiceMetrics metrics;
  ProbeCacheStats stats;
  stats.lookups = 10;
  stats.hits = 7;
  stats.misses = 3;
  stats.evictions = 1;
  const std::string text = ScrapeText(metrics, &stats);
  EXPECT_EQ(SampleValues(text, "aimq_probe_cache_lookups_total"),
            std::vector<double>{10.0});
  EXPECT_EQ(SampleValues(text, "aimq_probe_cache_hits_total"),
            std::vector<double>{7.0});
  EXPECT_EQ(SampleValues(text, "aimq_probe_cache_misses_total"),
            std::vector<double>{3.0});
  EXPECT_EQ(SampleValues(text, "aimq_probe_cache_evictions_total"),
            std::vector<double>{1.0});
  const auto rate = SampleValues(text, "aimq_probe_cache_hit_rate");
  ASSERT_EQ(rate.size(), 1u);
  EXPECT_NEAR(rate[0], 0.7, 1e-9);
}

TEST(PrometheusTest, ZeroLookupCacheEmitsZeroHitRate) {
  ServiceMetrics metrics;
  ProbeCacheStats stats;  // all zero
  const std::string text = ScrapeText(metrics, &stats);
  EXPECT_EQ(SampleValues(text, "aimq_probe_cache_hit_rate"),
            std::vector<double>{0.0});
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(PrometheusTest, EveryFamilyHasHelpAndTypeBeforeSamples) {
  ServiceMetrics metrics;
  metrics.OnAccepted();
  const std::string text = ScrapeText(metrics, nullptr);
  // Grammar smoke: every non-comment line is `<name...> <value>`; every
  // family introduces itself with # HELP then # TYPE.
  std::string last_comment;
  for (const std::string& line : Lines(text)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.compare(0, 7, "# HELP ") == 0 ||
                  line.compare(0, 7, "# TYPE ") == 0)
          << line;
      if (line.compare(0, 7, "# TYPE ") == 0) {
        EXPECT_EQ(last_comment.compare(0, 7, "# HELP "), 0)
            << "# TYPE without preceding # HELP: " << line;
      }
      last_comment = line;
      continue;
    }
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

TEST(PrometheusTest, TenantLabelValuesAreEscaped) {
  // A tenant whose name carries quotes, backslashes and a newline must come
  // out as one well-formed sample line per the exposition-format escaping
  // rules — not a broken multi-line or mis-quoted label.
  ServiceMetrics metrics;
  metrics.OnTenantAccepted("acme \"prod\"\\eu\nwest");
  metrics.OnTenantCompleted("acme \"prod\"\\eu\nwest");
  const std::string text = ScrapeText(metrics, nullptr);
  EXPECT_TRUE(HasLinePrefix(
      text,
      "aimq_tenant_accepted_total"
      "{tenant=\"acme \\\"prod\\\"\\\\eu\\nwest\"} 1"))
      << text;
  // Nothing leaked a raw newline mid-sample: every non-comment line still
  // ends in a numeric value.
  for (const std::string& line : Lines(text)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW(std::stod(line.substr(space + 1))) << line;
  }
}

}  // namespace
}  // namespace aimq
