// Counted multiset ("bag of keywords") of the paper's supertuples (§5.2),
// keyed by keyword string: the oracle CodedBag must reproduce exactly.

#ifndef AIMQ_ORACLES_BAG_H_
#define AIMQ_ORACLES_BAG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace aimq {

/// \brief A bag of keywords: each distinct string carries an occurrence count.
///
/// The paper represents the answerset of an AV-pair as a supertuple whose
/// per-attribute entries are bags; bag-semantics Jaccard between two bags is
/// |A ∩ B| / |A ∪ B| where intersection takes the min count and union the max
/// count per element.
class Bag {
 public:
  Bag() = default;

  /// Adds \p count occurrences of \p keyword (count must be > 0).
  void Add(const std::string& keyword, uint64_t count = 1);

  /// Occurrence count of \p keyword (0 if absent).
  uint64_t Count(const std::string& keyword) const;

  /// Number of distinct keywords.
  size_t DistinctSize() const { return counts_.size(); }

  /// Total number of occurrences (sum of counts).
  uint64_t TotalSize() const { return total_; }

  bool Empty() const { return counts_.empty(); }

  /// Bag-semantics intersection size: Σ min(count_A, count_B).
  uint64_t IntersectionSize(const Bag& other) const;

  /// Bag-semantics union size: Σ max(count_A, count_B).
  uint64_t UnionSize(const Bag& other) const;

  /// Jaccard coefficient with bag semantics, |A∩B| / |A∪B|.
  /// Two empty bags have similarity 0.
  double JaccardSimilarity(const Bag& other) const;

  /// Distinct keywords, sorted descending by count then ascending by keyword.
  std::vector<std::pair<std::string, uint64_t>> SortedEntries() const;

  const std::unordered_map<std::string, uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::unordered_map<std::string, uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace aimq

#endif  // AIMQ_ORACLES_BAG_H_
