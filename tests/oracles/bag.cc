#include "oracles/bag.h"

#include <algorithm>

namespace aimq {

void Bag::Add(const std::string& keyword, uint64_t count) {
  if (count == 0) return;
  counts_[keyword] += count;
  total_ += count;
}

uint64_t Bag::Count(const std::string& keyword) const {
  auto it = counts_.find(keyword);
  return it == counts_.end() ? 0 : it->second;
}

uint64_t Bag::IntersectionSize(const Bag& other) const {
  // Iterate over the smaller map.
  const Bag* small = this;
  const Bag* large = &other;
  if (small->counts_.size() > large->counts_.size()) std::swap(small, large);
  uint64_t inter = 0;
  for (const auto& [kw, cnt] : small->counts_) {
    inter += std::min(cnt, large->Count(kw));
  }
  return inter;
}

uint64_t Bag::UnionSize(const Bag& other) const {
  // |A ∪ B| = |A| + |B| − |A ∩ B| under min/max bag semantics.
  return total_ + other.total_ - IntersectionSize(other);
}

double Bag::JaccardSimilarity(const Bag& other) const {
  uint64_t uni = UnionSize(other);
  if (uni == 0) return 0.0;
  return static_cast<double>(IntersectionSize(other)) /
         static_cast<double>(uni);
}

std::vector<std::pair<std::string, uint64_t>> Bag::SortedEntries() const {
  std::vector<std::pair<std::string, uint64_t>> entries(counts_.begin(),
                                                        counts_.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return entries;
}

}  // namespace aimq
