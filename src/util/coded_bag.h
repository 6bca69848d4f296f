// CodedBag: the dictionary-encoded counterpart of the string-keyed Bag
// oracle (tests/oracles/bag.h). Keywords are dense integer ids
// (attribute-dictionary codes, or bin-label ids for numeric attributes); a
// finalized bag is a pair of parallel sorted arrays (ids, counts) —
// structure-of-arrays so bag-Jaccard can run as a SIMD merge/galloping
// intersection over the contiguous id array (simd/dispatch.h) instead of
// hashing strings through an unordered_map.
//
// Integer results (intersection/union sizes) are defined identically to
// Bag's, so JaccardSimilarity performs the same single double division and
// returns bit-identical values whenever ids are in bijection with keywords.

#ifndef AIMQ_UTIL_CODED_BAG_H_
#define AIMQ_UTIL_CODED_BAG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aimq {

/// \brief A bag of integer-coded keywords as parallel sorted (ids, counts)
/// arrays.
class CodedBag {
 public:
  CodedBag() = default;

  /// Records \p count occurrences of \p id. Ids may arrive in any order and
  /// repeat; call Finalize() once after the last Add before querying.
  void Add(uint32_t id, uint64_t count = 1);

  /// Sort-aggregates the accumulated ids into the canonical sorted unique
  /// form. Idempotent.
  void Finalize();

  /// Occurrence count of \p id (0 if absent). Requires Finalize().
  uint64_t Count(uint32_t id) const;

  size_t DistinctSize() const { return ids_.size(); }
  uint64_t TotalSize() const { return total_; }
  bool Empty() const { return ids_.empty() && pending_.empty(); }

  /// Bag-semantics intersection size Σ min, via the active simd
  /// intersection kernel over the sorted id arrays. Requires Finalize() on
  /// both sides.
  uint64_t IntersectionSize(const CodedBag& other) const;

  /// Bag-semantics union size: |A| + |B| − |A ∩ B|.
  uint64_t UnionSize(const CodedBag& other) const;

  /// Jaccard coefficient with bag semantics; 0 when both bags are empty.
  /// Same arithmetic as Bag::JaccardSimilarity.
  double JaccardSimilarity(const CodedBag& other) const;

  /// Sorted unique keyword ids. Requires Finalize().
  const std::vector<uint32_t>& ids() const { return ids_; }

  /// counts()[i] is the occurrence count of ids()[i]. Requires Finalize().
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Sorted-by-id entries, materialized from the parallel arrays. Requires
  /// Finalize().
  std::vector<std::pair<uint32_t, uint64_t>> entries() const;

 private:
  std::vector<std::pair<uint32_t, uint64_t>> pending_;  // unfinalized Adds
  std::vector<uint32_t> ids_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace aimq

#endif  // AIMQ_UTIL_CODED_BAG_H_
