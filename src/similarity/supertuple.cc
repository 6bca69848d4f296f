#include "similarity/supertuple.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace aimq {

std::string SuperTuple::ToString(const Schema& schema,
                                 size_t max_keywords) const {
  std::string out = av_.ToString(schema) + " (support " +
                    std::to_string(support_) + ")\n";
  for (size_t i = 0; i < coded_bags_.size(); ++i) {
    if (i == av_.attr || coded_bags_[i].Empty()) continue;
    out += "  " + schema.attribute(i).name + ": ";
    // Keyword ids are unique per label, so (label, count) pairs sort into
    // one order: count descending, then keyword ascending.
    std::vector<std::pair<std::string, uint64_t>> entries;
    const CodedBag& bag = coded_bags_[i];
    for (size_t e = 0; vocab_ != nullptr && e < bag.ids().size(); ++e) {
      entries.emplace_back(vocab_->keywords[i][bag.ids()[e]], bag.counts()[e]);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    for (size_t j = 0; j < entries.size() && j < max_keywords; ++j) {
      if (j > 0) out += ", ";
      out += entries[j].first + ":" + std::to_string(entries[j].second);
    }
    if (entries.size() > max_keywords) out += ", ...";
    out += "\n";
  }
  return out;
}

SuperTupleBuilder::SuperTupleBuilder(const Relation& sample,
                                     SuperTupleOptions options)
    : sample_(sample), cols_(sample.columnar()), options_(options) {
  const size_t n = sample.schema().NumAttributes();
  bin_min_.assign(n, 0.0);
  bin_width_.assign(n, 0.0);
  if (options_.numeric_bins == 0) options_.numeric_bins = 1;
  for (size_t i = 0; i < n; ++i) {
    if (sample.schema().attribute(i).type != AttrType::kNumeric) continue;
    // Min/max over the dictionary's distinct values equals min/max over the
    // column (first-seen order keeps the seeding value identical too).
    double lo = 0.0, hi = 0.0;
    bool seen = false;
    for (const Value& v : cols_->dict(i).values()) {
      if (!v.is_numeric()) continue;
      double d = v.AsNum();
      if (!seen) {
        lo = hi = d;
        seen = true;
      } else {
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
    }
    bin_min_[i] = lo;
    double width = (hi - lo) / static_cast<double>(options_.numeric_bins);
    bin_width_[i] = width > 0.0 ? width : 1.0;
  }

  // Vocabulary: render every distinct value's keyword once (per-row work in
  // BuildAll is then a pair of table lookups). Keyword ids are deduplicated
  // by label in dictionary-code order, so colliding bin labels merge exactly
  // as they merged in the string-keyed bags.
  auto vocab = std::make_shared<SuperTupleVocab>();
  vocab->code_to_keyword.resize(n);
  vocab->keywords.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const ValueDict& dict = cols_->dict(i);
    vocab->code_to_keyword[i].resize(dict.size(), SuperTupleVocab::kNoKeyword);
    std::unordered_map<std::string, uint32_t> label_id;
    for (ValueId code = 0; code < dict.size(); ++code) {
      std::string kw = KeywordFor(i, dict.value(code));
      if (kw.empty()) continue;
      auto [it, inserted] = label_id.emplace(
          kw, static_cast<uint32_t>(vocab->keywords[i].size()));
      if (inserted) vocab->keywords[i].push_back(std::move(kw));
      vocab->code_to_keyword[i][code] = it->second;
    }
  }
  vocab_ = std::move(vocab);
}

double SuperTupleBuilder::BinLower(size_t attr, size_t b) const {
  return bin_min_[attr] + bin_width_[attr] * static_cast<double>(b);
}

std::string SuperTupleBuilder::KeywordFor(size_t attr, const Value& v) const {
  if (v.is_null()) return "";
  if (v.is_categorical()) return v.AsCat();
  // Numeric: equi-width bin label "lo-hi".
  double d = v.AsNum();
  double rel = (d - bin_min_[attr]) / bin_width_[attr];
  auto bin = static_cast<int64_t>(std::floor(rel));
  if (bin < 0) bin = 0;
  if (bin >= static_cast<int64_t>(options_.numeric_bins)) {
    bin = static_cast<int64_t>(options_.numeric_bins) - 1;
  }
  double lo = BinLower(attr, static_cast<size_t>(bin));
  double hi = lo + bin_width_[attr];
  return Value::Num(lo).ToString() + "-" + Value::Num(hi).ToString();
}

Result<std::vector<SuperTuple>> SuperTupleBuilder::BuildAll(
    size_t attr) const {
  const Schema& schema = sample_.schema();
  if (attr >= schema.NumAttributes()) {
    return Status::OutOfRange("attribute index out of range");
  }
  if (schema.attribute(attr).type != AttrType::kCategorical) {
    return Status::InvalidArgument(
        "supertuples are built for categorical attributes; '" +
        schema.attribute(attr).name + "' is numeric");
  }
  const size_t n = schema.NumAttributes();
  const ValueDict& bound_dict = cols_->dict(attr);

  // One supertuple per distinct bound value; position == dictionary code,
  // which is first-seen order — the order DistinctValues reports.
  std::vector<SuperTuple> supertuples;
  supertuples.reserve(bound_dict.size());
  for (ValueId code = 0; code < bound_dict.size(); ++code) {
    supertuples.emplace_back(AVPair(attr, bound_dict.value(code)), n, vocab_);
  }
  // Aligned block-window scan over all columns: the bound column is window
  // index 0, attribute j is window index j + 1. Packed samples stream one
  // block per column at a time.
  std::vector<size_t> scan_attrs;
  scan_attrs.reserve(n + 1);
  scan_attrs.push_back(attr);
  for (size_t j = 0; j < n; ++j) scan_attrs.push_back(j);
  ColumnarRelation::CodeWindow w;
  for (auto cur = cols_->ScanBlocks(scan_attrs); cur.Next(&w);) {
    for (size_t i = 0; i < w.num_rows; ++i) {
      const ValueId bound = w.codes[0][i];
      if (bound == ValueDict::kNullCode) continue;
      SuperTuple& st = supertuples[bound];
      st.IncrementSupport();
      for (size_t j = 0; j < n; ++j) {
        if (j == attr) continue;
        const ValueId code = w.codes[j + 1][i];
        if (code == ValueDict::kNullCode) continue;
        const uint32_t kw = vocab_->code_to_keyword[j][code];
        if (kw != SuperTupleVocab::kNoKeyword) st.AddKeyword(j, kw);
      }
    }
  }
  for (SuperTuple& st : supertuples) st.FinalizeBags();
  return supertuples;
}

Result<SuperTuple> SuperTupleBuilder::Build(const AVPair& av) const {
  AIMQ_ASSIGN_OR_RETURN(std::vector<SuperTuple> all, BuildAll(av.attr));
  for (SuperTuple& st : all) {
    if (st.av().value == av.value) return std::move(st);
  }
  // Value absent from the sample: an empty supertuple.
  return SuperTuple(av, sample_.schema().NumAttributes());
}

}  // namespace aimq
