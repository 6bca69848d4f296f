#include "util/coded_bag.h"

#include <algorithm>

#include "simd/dispatch.h"

namespace aimq {

void CodedBag::Add(uint32_t id, uint64_t count) {
  if (count == 0) return;
  pending_.emplace_back(id, count);
  total_ += count;
}

void CodedBag::Finalize() {
  if (pending_.empty()) return;
  // Fold any previously finalized entries back in, then sort-aggregate the
  // whole set into fresh parallel arrays.
  for (size_t i = 0; i < ids_.size(); ++i) {
    pending_.emplace_back(ids_[i], counts_[i]);
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ids_.clear();
  counts_.clear();
  for (size_t i = 0; i < pending_.size();) {
    const uint32_t id = pending_[i].first;
    uint64_t count = 0;
    while (i < pending_.size() && pending_[i].first == id) {
      count += pending_[i].second;
      ++i;
    }
    ids_.push_back(id);
    counts_.push_back(count);
  }
  pending_.clear();
  pending_.shrink_to_fit();
}

uint64_t CodedBag::Count(uint32_t id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  return it != ids_.end() && *it == id
             ? counts_[static_cast<size_t>(it - ids_.begin())]
             : 0;
}

uint64_t CodedBag::IntersectionSize(const CodedBag& other) const {
  return simd::Kernels().intersect_size(ids_.data(), counts_.data(),
                                        ids_.size(), other.ids_.data(),
                                        other.counts_.data(),
                                        other.ids_.size());
}

uint64_t CodedBag::UnionSize(const CodedBag& other) const {
  return total_ + other.total_ - IntersectionSize(other);
}

double CodedBag::JaccardSimilarity(const CodedBag& other) const {
  const uint64_t uni = UnionSize(other);
  if (uni == 0) return 0.0;
  return static_cast<double>(IntersectionSize(other)) /
         static_cast<double>(uni);
}

std::vector<std::pair<uint32_t, uint64_t>> CodedBag::entries() const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  out.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) out.emplace_back(ids_[i], counts_[i]);
  return out;
}

}  // namespace aimq
