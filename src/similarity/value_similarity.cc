#include "similarity/value_similarity.h"

#include "util/parallel.h"
#include "util/stopwatch.h"

#include <algorithm>

namespace aimq {

const ValueSimilarityModel::AttrModel* ValueSimilarityModel::ModelFor(
    size_t attr) const {
  auto it = attrs_.find(attr);
  return it == attrs_.end() ? nullptr : &it->second;
}

double ValueSimilarityModel::VSim(size_t attr, const Value& a,
                                  const Value& b) const {
  if (a == b) return 1.0;
  const AttrModel* m = ModelFor(attr);
  if (m == nullptr) return 0.0;
  auto ia = m->index.find(a);
  auto ib = m->index.find(b);
  if (ia == m->index.end() || ib == m->index.end()) return 0.0;
  uint64_t i = ia->second;
  uint64_t j = ib->second;
  if (i > j) std::swap(i, j);
  auto it = m->sim.find(i * m->values.size() + j);
  return it == m->sim.end() ? 0.0 : it->second;
}

int64_t ValueSimilarityModel::ModelIndexOf(size_t attr,
                                           const Value& v) const {
  const AttrModel* m = ModelFor(attr);
  if (m == nullptr) return -1;
  auto it = m->index.find(v);
  return it == m->index.end() ? -1 : static_cast<int64_t>(it->second);
}

double ValueSimilarityModel::VSimByIndex(size_t attr, size_t i,
                                         size_t j) const {
  if (i == j) return 1.0;
  const AttrModel* m = ModelFor(attr);
  if (m == nullptr) return 0.0;
  uint64_t lo = i;
  uint64_t hi = j;
  if (lo > hi) std::swap(lo, hi);
  auto it = m->sim.find(lo * m->values.size() + hi);
  return it == m->sim.end() ? 0.0 : it->second;
}

std::vector<std::pair<Value, double>> ValueSimilarityModel::TopSimilar(
    size_t attr, const Value& v, size_t k) const {
  std::vector<std::pair<Value, double>> out;
  const AttrModel* m = ModelFor(attr);
  if (m == nullptr) return out;
  auto iv = m->index.find(v);
  if (iv == m->index.end()) return out;
  for (size_t j = 0; j < m->values.size(); ++j) {
    if (j == iv->second) continue;
    uint64_t lo = std::min<uint64_t>(iv->second, j);
    uint64_t hi = std::max<uint64_t>(iv->second, j);
    auto it = m->sim.find(lo * m->values.size() + hi);
    if (it != m->sim.end() && it->second > 0.0) {
      out.emplace_back(m->values[j], it->second);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<Value> ValueSimilarityModel::MinedValues(size_t attr) const {
  const AttrModel* m = ModelFor(attr);
  return m == nullptr ? std::vector<Value>{} : m->values;
}

size_t ValueSimilarityModel::NumStoredPairs() const {
  size_t total = 0;
  for (const auto& [attr, m] : attrs_) total += m.sim.size();
  return total;
}

std::vector<std::tuple<Value, Value, double>> ValueSimilarityModel::Entries(
    size_t attr) const {
  std::vector<std::tuple<Value, Value, double>> out;
  const AttrModel* m = ModelFor(attr);
  if (m == nullptr) return out;
  out.reserve(m->sim.size());
  for (const auto& [key, sim] : m->sim) {
    size_t i = key / m->values.size();
    size_t j = key % m->values.size();
    out.emplace_back(m->values[i], m->values[j], sim);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
    return std::get<1>(a) < std::get<1>(b);
  });
  return out;
}

Status ValueSimilarityModel::SetValues(size_t attr,
                                       std::vector<Value> values) {
  AttrModel m;
  for (size_t i = 0; i < values.size(); ++i) {
    auto [it, inserted] = m.index.emplace(values[i], i);
    (void)it;
    if (!inserted) {
      return Status::InvalidArgument("duplicate value in similarity model: " +
                                     values[i].ToString());
    }
  }
  m.values = std::move(values);
  attrs_[attr] = std::move(m);
  return Status::OK();
}

Status ValueSimilarityModel::SetSimilarity(size_t attr, const Value& a,
                                           const Value& b, double sim) {
  auto it = attrs_.find(attr);
  if (it == attrs_.end()) {
    return Status::FailedPrecondition(
        "SetValues must be called before SetSimilarity");
  }
  AttrModel& m = it->second;
  auto ia = m.index.find(a);
  auto ib = m.index.find(b);
  if (ia == m.index.end() || ib == m.index.end()) {
    return Status::NotFound("similarity entry references unregistered value");
  }
  if (ia->second == ib->second) {
    return Status::InvalidArgument("self-similarity is fixed at 1");
  }
  uint64_t i = ia->second;
  uint64_t j = ib->second;
  if (i > j) std::swap(i, j);
  m.sim[i * m.values.size() + j] = sim;
  return Status::OK();
}

Result<ValueSimilarityModel> SimilarityMiner::Mine(
    const Relation& sample, const std::vector<double>& wimp,
    SimilarityTimings* timings) const {
  return MineAttributes(sample, wimp, sample.schema().CategoricalIndices(),
                        timings);
}

Result<ValueSimilarityModel> SimilarityMiner::MineAttributes(
    const Relation& sample, const std::vector<double>& wimp,
    const std::vector<size_t>& attributes, SimilarityTimings* timings) const {
  const Schema& schema = sample.schema();
  const size_t n = schema.NumAttributes();
  if (wimp.size() != n) {
    return Status::InvalidArgument(
        "wimp must hold one weight per schema attribute");
  }
  if (sample.NumTuples() == 0) {
    return Status::InvalidArgument("cannot mine similarities from an empty sample");
  }

  for (size_t attr : attributes) {
    if (attr >= n) return Status::OutOfRange("attribute index out of range");
  }

  SuperTupleBuilder builder(sample, options_.supertuple);
  ValueSimilarityModel model;
  if (timings != nullptr) *timings = SimilarityTimings{};

  // Phase 1 — supertuple construction, parallel across attributes (each
  // BuildAll is an independent scan of the shared read-only sample).
  Stopwatch build_watch;
  std::vector<std::vector<SuperTuple>> supertuples(attributes.size());
  std::vector<Status> statuses(attributes.size());
  ParallelFor(attributes.size(), options_.num_threads, [&](size_t idx) {
    auto built = builder.BuildAll(attributes[idx]);
    if (built.ok()) {
      supertuples[idx] = built.TakeValue();
    } else {
      statuses[idx] = built.status();
    }
  });
  for (const Status& st : statuses) {
    AIMQ_RETURN_NOT_OK(st);
  }
  if (timings != nullptr) {
    timings->supertuple_seconds = build_watch.ElapsedSeconds();
  }

  // Phase 2 — pairwise estimation, parallel across attributes; each worker
  // fills only its own attribute's model slot.
  Stopwatch estimate_watch;
  std::vector<ValueSimilarityModel::AttrModel> models(attributes.size());
  ParallelFor(attributes.size(), options_.num_threads, [&](size_t idx) {
    const size_t attr = attributes[idx];
    const std::vector<SuperTuple>& sts = supertuples[idx];

    // Feature weights: Wimp renormalized over the unbound attributes so a
    // perfect match of every feature bag yields VSim = 1.
    std::vector<double> feature_weight(n, 0.0);
    double weight_sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == attr) continue;
      feature_weight[j] = wimp[j];
      weight_sum += wimp[j];
    }
    if (weight_sum > 0.0) {
      for (double& w : feature_weight) w /= weight_sum;
    } else if (n > 1) {
      for (size_t j = 0; j < n; ++j) {
        if (j != attr) feature_weight[j] = 1.0 / static_cast<double>(n - 1);
      }
    }

    ValueSimilarityModel::AttrModel& am = models[idx];
    am.values.reserve(sts.size());
    for (size_t i = 0; i < sts.size(); ++i) {
      am.values.push_back(sts[i].av().value);
      am.index.emplace(sts[i].av().value, i);
    }
    const uint64_t k = sts.size();
    for (uint64_t i = 0; i < k; ++i) {
      for (uint64_t j = i + 1; j < k; ++j) {
        double vsim = 0.0;
        for (size_t f = 0; f < n; ++f) {
          if (f == attr || feature_weight[f] <= 0.0) continue;
          vsim += feature_weight[f] *
                  sts[i].coded_bag(f).JaccardSimilarity(sts[j].coded_bag(f));
        }
        if (vsim >= options_.min_store_similarity) {
          am.sim.emplace(i * k + j, vsim);
        }
      }
    }
  });
  for (size_t idx = 0; idx < attributes.size(); ++idx) {
    model.attrs_.emplace(attributes[idx], std::move(models[idx]));
  }
  if (timings != nullptr) {
    timings->estimation_seconds = estimate_watch.ElapsedSeconds();
  }
  return model;
}

}  // namespace aimq
