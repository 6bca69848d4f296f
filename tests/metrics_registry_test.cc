// MetricsRegistry tests: collector merge semantics, Prometheus rendering
// (HELP/TYPE grammar, label escaping, cumulative buckets), JSON snapshots,
// and snapshot-under-concurrent-increment safety.

#include "obs/metrics_registry.h"

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace aimq {
namespace obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

bool HasLine(const std::string& text, const std::string& exact) {
  for (const std::string& line : Lines(text)) {
    if (line == exact) return true;
  }
  return false;
}

TEST(MetricsRegistryTest, CounterRegistersAndRenders) {
  MetricsRegistry registry;
  std::atomic<uint64_t> requests{0};
  registry.AddCollector([&requests](MetricsRegistry::Emitter* out) {
    out->Counter("test_requests_total", "Requests seen.",
                 static_cast<double>(requests.load()));
  });
  requests += 1;
  requests += 41;
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "# HELP test_requests_total Requests seen."));
  EXPECT_TRUE(HasLine(text, "# TYPE test_requests_total counter"));
  EXPECT_TRUE(HasLine(text, "test_requests_total 42"));
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("tenant_total", "by tenant", 1.0,
                 {{"tenant", "acme \"prod\"\\eu\nwest"}});
  });
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(
      text, "tenant_total{tenant=\"acme \\\"prod\\\"\\\\eu\\nwest\"} 1"))
      << text;
}

TEST(MetricsRegistryTest, EscapePrometheusLabelRules) {
  EXPECT_EQ(EscapePrometheusLabel("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapePrometheusLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePrometheusLabel("a\nb"), "a\\nb");
}

TEST(MetricsRegistryTest, HistogramRendersCumulativeBucketsEndingAtInf) {
  MetricsRegistry registry;
  LatencyHistogram h;
  registry.AddCollector([&h](MetricsRegistry::Emitter* out) {
    out->Histogram("lat_seconds", "latency", h.Snapshot());
  });
  h.Record(0.001);
  h.Record(0.010);
  h.Record(0.100);
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "# TYPE lat_seconds histogram"));
  EXPECT_TRUE(HasLine(text, "lat_seconds_bucket{le=\"+Inf\"} 3"));
  EXPECT_TRUE(HasLine(text, "lat_seconds_count 3"));
  // Bucket counts never decrease as le grows; the text form keeps every 8th
  // of the 96 geometric bounds.
  std::vector<double> buckets;
  for (const std::string& line : Lines(text)) {
    const std::string prefix = "lat_seconds_bucket{le=";
    if (line.compare(0, prefix.size(), prefix) == 0) {
      buckets.push_back(std::stod(line.substr(line.rfind(' ') + 1)));
    }
  }
  ASSERT_EQ(buckets.size(), LatencyHistogram::kNumBuckets / 8 + 1);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i], buckets[i - 1]);
  }
}

TEST(MetricsRegistryTest, CollectorFamiliesMergeWithFirstClassOnes) {
  // Two collectors emitting the same family name: one family, first help.
  MetricsRegistry registry;
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("shared_total", "first", 1.0, {{"src", "one"}});
  });
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("shared_total", "second", 2.0, {{"src", "two"}});
    out->Gauge("pulled_gauge", "pulled", 5.0);
  });
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "shared_total{src=\"one\"} 1"));
  EXPECT_TRUE(HasLine(text, "shared_total{src=\"two\"} 2"));
  EXPECT_TRUE(HasLine(text, "pulled_gauge 5"));
  // One HELP/TYPE pair for the merged family, with the first help text.
  size_t type_lines = 0;
  for (const std::string& line : Lines(text)) {
    if (line.rfind("# TYPE shared_total", 0) == 0) ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_TRUE(HasLine(text, "# HELP shared_total first"));
}

TEST(MetricsRegistryTest, EveryFamilyHasHelpAndTypeBeforeSamples) {
  MetricsRegistry registry;
  LatencyHistogram h;
  h.Record(0.01);
  registry.AddCollector([&h](MetricsRegistry::Emitter* out) {
    out->Counter("a_total", "a", 1.0);
    out->Gauge("b_gauge", "b", 1.5);
    out->Histogram("c_seconds", "c", h.Snapshot());
  });
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Counter("d_total", "d", 4.0);
  });
  std::string last_comment;
  for (const std::string& line : Lines(registry.PrometheusText())) {
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

TEST(MetricsRegistryTest, NonFiniteGaugeRendersAsZero) {
  MetricsRegistry registry;
  registry.AddCollector([](MetricsRegistry::Emitter* out) {
    out->Gauge("rate", "a rate", 0.0 / 0.0);
  });
  const std::string text = registry.PrometheusText();
  EXPECT_TRUE(HasLine(text, "rate 0"));
  EXPECT_EQ(text.find("nan"), std::string::npos);
  // The JSON form applies the same rule: a number, not null.
  const Json snap = registry.JsonSnapshot();
  const Json* rate = snap.Find("rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_TRUE(rate->is_number());
  EXPECT_EQ(rate->AsNum(), 0.0);
}

TEST(MetricsRegistryTest, JsonSnapshotFlattensScalarsAndLabels) {
  MetricsRegistry registry;
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(0.002);
  registry.AddCollector([&h](MetricsRegistry::Emitter* out) {
    out->Counter("plain_total", "plain", 9.0);
    out->Counter("by_shard_total", "labelled", 4.0, {{"shard", "0"}});
    out->Counter("by_shard_total", "labelled", 6.0, {{"shard", "1"}});
    out->Histogram("lat_seconds", "latency", h.Snapshot());
  });
  const Json snap = registry.JsonSnapshot();
  ASSERT_TRUE(snap.is_object());
  const Json* plain = snap.Find("plain_total");
  ASSERT_NE(plain, nullptr);
  EXPECT_DOUBLE_EQ(plain->AsNum(), 9.0);
  const Json* labelled = snap.Find("by_shard_total");
  ASSERT_NE(labelled, nullptr);
  ASSERT_TRUE(labelled->is_array());
  ASSERT_EQ(labelled->AsArr().size(), 2u);
  EXPECT_EQ(*labelled->AsArr()[1].GetStr("shard"), "1");
  EXPECT_DOUBLE_EQ(*labelled->AsArr()[1].GetNum("value"), 6.0);
  const Json* hist = snap.Find("lat_seconds");
  ASSERT_NE(hist, nullptr);
  ASSERT_TRUE(hist->is_object());
  EXPECT_DOUBLE_EQ(hist->Find("count")->AsNum(), 100.0);
  EXPECT_NEAR(hist->Find("sum")->AsNum(), 0.2, 1e-9);
  // Percentiles use every bucket (clamped to the max), so 100 records at
  // 2 ms read 2 ms — not a coarse exposition bound.
  for (const char* q : {"p50", "p95", "p99", "max"}) {
    ASSERT_NE(hist->Find(q), nullptr) << q;
    EXPECT_DOUBLE_EQ(hist->Find(q)->AsNum(), h.Percentile(0.5)) << q;
    EXPECT_NEAR(hist->Find(q)->AsNum(), 0.002, 1e-9) << q;
  }
}

TEST(MetricsRegistryTest, SnapshotUnderConcurrentIncrementNeverTears) {
  MetricsRegistry registry;
  std::atomic<uint64_t> busy{0};
  LatencyHistogram h;
  registry.AddCollector([&](MetricsRegistry::Emitter* out) {
    out->Counter("busy_total", "hot",
                 static_cast<double>(busy.load(std::memory_order_relaxed)));
    out->Histogram("busy_seconds", "hot", h.Snapshot());
  });
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        busy.fetch_add(1, std::memory_order_relaxed);
        h.Record(0.001);
      }
    });
  }
  // Snapshots race the writers: every collected value must be a plausible
  // point-in-time reading — counters monotone across scrapes, histogram
  // sums finite — never corrupt. (Individual histogram cells may tear
  // against each other by a few in-flight Records; that is the documented
  // contract.)
  uint64_t last_count = 0;
  uint64_t last_hist_count = 0;
  for (int i = 0; i < 200; ++i) {
    const std::vector<FamilySnapshot> families = registry.Collect();
    ASSERT_EQ(families.size(), 2u);
    const uint64_t counter_now =
        static_cast<uint64_t>(families[0].samples[0].value);
    EXPECT_GE(counter_now, last_count);
    last_count = counter_now;
    const HistogramSnapshot& data = families[1].samples[0].histogram;
    EXPECT_GE(data.count, last_hist_count);
    last_hist_count = data.count;
    EXPECT_TRUE(data.sum_seconds >= 0.0);
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  const std::vector<FamilySnapshot> final_families = registry.Collect();
  EXPECT_EQ(static_cast<uint64_t>(final_families[0].samples[0].value),
            busy.load());
}

}  // namespace
}  // namespace obs
}  // namespace aimq
