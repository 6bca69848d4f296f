#include "afd/partition.h"

#include <algorithm>
#include <unordered_map>

#include "simd/dispatch.h"

namespace aimq {

StrippedPartition::StrippedPartition(size_t num_rows,
                                     std::vector<std::vector<size_t>> classes)
    : num_rows_(num_rows), classes_(std::move(classes)) {
  RecomputeCovered();
}

void StrippedPartition::RecomputeCovered() {
  covered_rows_ = 0;
  for (const auto& c : classes_) covered_rows_ += c.size();
}

StrippedPartition StrippedPartition::Universe(size_t num_rows) {
  std::vector<std::vector<size_t>> classes;
  if (num_rows >= 2) {
    std::vector<size_t> all(num_rows);
    for (size_t i = 0; i < num_rows; ++i) all[i] = i;
    classes.push_back(std::move(all));
  }
  return StrippedPartition(num_rows, std::move(classes));
}

StrippedPartition StrippedPartition::FromColumn(const Relation& relation,
                                                size_t attr_index) {
  return FromColumnCoded(*relation.columnar(), attr_index);
}

StrippedPartition StrippedPartition::FromColumnCoded(
    const ColumnarRelation& data, size_t attr_index) {
  const size_t card = data.dict(attr_index).size();
  // Dense counting: one bucket per dictionary code, plus one for null. Each
  // NaN occurrence owns a fresh code, so NaN rows land in singleton buckets
  // and are stripped — the same classes the Value-keyed grouping produced.
  // Two block-window scans (count, then fill) keep the pass sequential in
  // either storage mode; packed snapshots decode one block at a time.
  // The counting pass dispatches to the simd kernel layer: stored codes are
  // either < card or kNullCode, so min(code, card) lands nulls in the extra
  // bucket — the same slots the branching form produced.
  std::vector<uint32_t> counts(card + 1, 0);
  const simd::KernelTable& kernels = simd::Kernels();
  ColumnarRelation::CodeWindow w;
  for (auto cur = data.ScanBlocks({attr_index}); cur.Next(&w);) {
    kernels.histogram(w.codes[0], w.num_rows, static_cast<uint32_t>(card),
                      counts.data());
  }
  std::vector<std::vector<size_t>> buckets(card + 1);
  for (size_t slot = 0; slot <= card; ++slot) {
    if (counts[slot] >= 2) buckets[slot].reserve(counts[slot]);
  }
  for (auto cur = data.ScanBlocks({attr_index}); cur.Next(&w);) {
    for (size_t i = 0; i < w.num_rows; ++i) {
      const ValueId code = w.codes[0][i];
      const size_t slot = code == ValueDict::kNullCode ? card : code;
      if (counts[slot] >= 2) buckets[slot].push_back(w.begin_row + i);
    }
  }
  std::vector<std::vector<size_t>> classes;
  for (auto& rows : buckets) {
    if (rows.size() >= 2) classes.push_back(std::move(rows));
  }
  // Deterministic class order (by first row).
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return StrippedPartition(data.NumRows(), std::move(classes));
}

StrippedPartition StrippedPartition::Product(
    const StrippedPartition& other) const {
  // TANE partition product: T maps each row covered by *this* partition to
  // its class id; rows of each class of `other` are grouped by T.
  std::vector<int32_t> T(num_rows_, -1);
  for (size_t ci = 0; ci < classes_.size(); ++ci) {
    for (size_t row : classes_[ci]) T[row] = static_cast<int32_t>(ci);
  }
  std::vector<std::vector<size_t>> result;
  std::unordered_map<int32_t, std::vector<size_t>> groups;
  for (const auto& oc : other.classes_) {
    groups.clear();
    for (size_t row : oc) {
      if (T[row] >= 0) groups[T[row]].push_back(row);
    }
    for (auto& [cid, rows] : groups) {
      if (rows.size() >= 2) result.push_back(std::move(rows));
    }
  }
  std::sort(result.begin(), result.end(),
            [](const auto& a, const auto& b) { return a[0] < b[0]; });
  return StrippedPartition(num_rows_, std::move(result));
}

size_t StrippedPartition::NumClasses() const {
  return classes_.size() + (num_rows_ - covered_rows_);
}

double StrippedPartition::KeyError() const {
  if (num_rows_ == 0) return 0.0;
  return static_cast<double>(num_rows_ - NumClasses()) /
         static_cast<double>(num_rows_);
}

double StrippedPartition::FdError(const StrippedPartition& lhs_rhs) const {
  if (num_rows_ == 0) return 0.0;
  // For each class c of π_X, the rows we must delete number
  // |c| − max subclass size of c within π_{X∪A}. Rows that are singletons in
  // π_{X∪A} form subclasses of size 1.
  std::vector<int32_t> T(num_rows_, -1);
  for (size_t ci = 0; ci < lhs_rhs.classes_.size(); ++ci) {
    for (size_t row : lhs_rhs.classes_[ci]) {
      T[row] = static_cast<int32_t>(ci);
    }
  }
  size_t removed = 0;
  std::unordered_map<int32_t, size_t> freq;
  for (const auto& c : classes_) {
    freq.clear();
    size_t max_freq = 1;  // a singleton subclass always exists as fallback
    for (size_t row : c) {
      if (T[row] >= 0) {
        size_t f = ++freq[T[row]];
        if (f > max_freq) max_freq = f;
      }
    }
    removed += c.size() - max_freq;
  }
  return static_cast<double>(removed) / static_cast<double>(num_rows_);
}

}  // namespace aimq
