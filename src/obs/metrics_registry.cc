#include "obs/metrics_registry.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace aimq {
namespace obs {

namespace {

// Every 8th geometric bound keeps the exposition at 12 buckets + +Inf
// (relative error <= ~6x one bucket's 25%, still far finer than scrape
// dashboards need). Only the text exposition coarsens; JSON percentiles use
// every bucket.
constexpr size_t kBucketStride = 8;

void AppendScalar(std::string* out, double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  *out += buf;
}

// {label="escaped",...} — empty labels render nothing. \p extra, when
// non-null, is appended as the last pair (the histogram "le" bound).
void AppendLabels(std::string* out, const MetricLabels& labels,
                  const std::pair<const char*, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    *out += EscapePrometheusLabel(v);
    *out += '"';
  }
  if (extra != nullptr) {
    if (!first) *out += ',';
    *out += extra->first;
    *out += "=\"";
    *out += extra->second;  // le bounds are numeric, nothing to escape
    *out += '"';
  }
  *out += '}';
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

void RenderHistogramSample(std::string* out, const std::string& name,
                           const MetricSample& sample) {
  const HistogramSnapshot& data = sample.histogram;
  uint64_t cumulative = 0;
  char bound[40];
  for (size_t i = 0; i < data.bucket_counts.size(); ++i) {
    cumulative += data.bucket_counts[i];
    if ((i + 1) % kBucketStride != 0) continue;
    std::snprintf(bound, sizeof(bound), "%.6g",
                  LatencyHistogram::BucketUpperBound(i));
    *out += name;
    *out += "_bucket";
    const std::pair<const char*, std::string> le{"le", bound};
    AppendLabels(out, sample.labels, &le);
    *out += ' ';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "\n", cumulative);
    *out += buf;
  }
  const std::pair<const char*, std::string> inf{"le", "+Inf"};
  *out += name;
  *out += "_bucket";
  AppendLabels(out, sample.labels, &inf);
  char buf[48];
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", data.count);
  *out += buf;
  *out += name;
  *out += "_sum";
  AppendLabels(out, sample.labels, nullptr);
  *out += ' ';
  AppendScalar(out, data.sum_seconds);
  *out += '\n';
  *out += name;
  *out += "_count";
  AppendLabels(out, sample.labels, nullptr);
  std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", data.count);
  *out += buf;
}

// {"count","sum","p50","p95","p99","max"} of one histogram sample.
Json HistogramSummary(const HistogramSnapshot& h) {
  Json out = Json::Obj();
  out.Set("count", Json::Num(static_cast<double>(h.count)));
  out.Set("sum", Json::Num(h.sum_seconds));
  out.Set("p50", Json::Num(h.Percentile(0.50)));
  out.Set("p95", Json::Num(h.Percentile(0.95)));
  out.Set("p99", Json::Num(h.Percentile(0.99)));
  out.Set("max", Json::Num(h.max_seconds));
  return out;
}

}  // namespace

std::string EscapePrometheusLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText(const std::vector<FamilySnapshot>& families) {
  std::string out;
  out.reserve(4096);
  for (const FamilySnapshot& family : families) {
    out += "# HELP ";
    out += family.name;
    out += ' ';
    out += family.help;
    out += "\n# TYPE ";
    out += family.name;
    out += ' ';
    out += KindName(family.kind);
    out += '\n';
    for (const MetricSample& sample : family.samples) {
      if (family.kind == MetricKind::kHistogram) {
        RenderHistogramSample(&out, family.name, sample);
        continue;
      }
      out += family.name;
      AppendLabels(&out, sample.labels, nullptr);
      out += ' ';
      AppendScalar(&out, sample.value);
      out += '\n';
    }
  }
  return out;
}

void MetricsRegistry::Emitter::Append(const std::string& name,
                                      const std::string& help, MetricKind kind,
                                      MetricSample sample) {
  for (FamilySnapshot& family : *out_) {
    if (family.name == name) {
      family.samples.push_back(std::move(sample));
      return;
    }
  }
  FamilySnapshot family;
  family.name = name;
  family.help = help;
  family.kind = kind;
  family.samples.push_back(std::move(sample));
  out_->push_back(std::move(family));
}

void MetricsRegistry::Emitter::Counter(const std::string& name,
                                       const std::string& help, double value,
                                       MetricLabels labels) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.value = value;
  Append(name, help, MetricKind::kCounter, std::move(sample));
}

void MetricsRegistry::Emitter::Gauge(const std::string& name,
                                     const std::string& help, double value,
                                     MetricLabels labels) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.value = value;
  Append(name, help, MetricKind::kGauge, std::move(sample));
}

void MetricsRegistry::Emitter::Histogram(const std::string& name,
                                         const std::string& help,
                                         HistogramSnapshot snapshot,
                                         MetricLabels labels) {
  MetricSample sample;
  sample.labels = std::move(labels);
  sample.histogram = std::move(snapshot);
  Append(name, help, MetricKind::kHistogram, std::move(sample));
}

void MetricsRegistry::AddCollector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

std::vector<FamilySnapshot> MetricsRegistry::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilySnapshot> out;
  Emitter emitter(&out);
  for (const Collector& collector : collectors_) {
    collector(&emitter);
  }
  return out;
}

std::string MetricsRegistry::PrometheusText() const {
  return RenderPrometheusText(Collect());
}

Json MetricsRegistry::JsonSnapshot() const {
  Json out = Json::Obj();
  for (const FamilySnapshot& family : Collect()) {
    const bool histogram = family.kind == MetricKind::kHistogram;
    // The same rule as AppendScalar: a non-finite value reads as 0.
    const auto value = [histogram](const MetricSample& s) {
      if (histogram) return HistogramSummary(s.histogram);
      return Json::Num(std::isfinite(s.value) ? s.value : 0.0);
    };
    if (family.samples.size() == 1 && family.samples[0].labels.empty()) {
      out.Set(family.name, value(family.samples[0]));
      continue;
    }
    Json arr = Json::Arr();
    for (const MetricSample& s : family.samples) {
      Json entry = histogram ? value(s) : Json::Obj();
      for (const auto& [k, v] : s.labels) entry.Set(k, Json::Str(v));
      if (!histogram) entry.Set("value", value(s));
      arr.Push(std::move(entry));
    }
    out.Set(family.name, std::move(arr));
  }
  return out;
}

}  // namespace obs
}  // namespace aimq
