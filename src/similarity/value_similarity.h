// Value similarity estimation for categorical attributes (paper §5.1-5.2):
// VSim(C1, C2) = Σ_i Wimp(Ai) × SimJ(C1.Ai, C2.Ai), the importance-weighted
// bag-Jaccard similarity of the two values' supertuples.

#ifndef AIMQ_SIMILARITY_VALUE_SIMILARITY_H_
#define AIMQ_SIMILARITY_VALUE_SIMILARITY_H_

#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "relation/relation.h"
#include "similarity/supertuple.h"
#include "util/status.h"

namespace aimq {

/// Options for the similarity miner.
struct SimilarityMinerOptions {
  /// Discretization of numeric feature attributes in supertuples.
  SuperTupleOptions supertuple;

  /// Similarities strictly below this value are not stored (treated as 0).
  /// Keeps the per-attribute matrices sparse.
  double min_store_similarity = 1e-9;

  /// Worker threads for supertuple construction and pairwise estimation
  /// (parallel across attributes). 0 = auto, 1 = serial.
  size_t num_threads = 0;
};

/// \brief Mined value-value similarities for every categorical attribute.
///
/// Lookup is symmetric; identical values always have similarity 1.
class ValueSimilarityModel {
 public:
  ValueSimilarityModel() = default;

  /// VSim between two values of categorical attribute \p attr. Values never
  /// seen while mining have similarity 0 to everything (and 1 to
  /// themselves).
  double VSim(size_t attr, const Value& a, const Value& b) const;

  /// Index of \p v in attribute \p attr's mined value universe, or -1 if the
  /// value (or attribute) was never mined. Lets callers resolve a value once
  /// and use VSimByIndex afterwards.
  int64_t ModelIndexOf(size_t attr, const Value& v) const;

  /// VSim between the mined values at indices \p i and \p j (as returned by
  /// ModelIndexOf). i == j yields 1.0; unstored pairs yield 0.0.
  double VSimByIndex(size_t attr, size_t i, size_t j) const;

  /// The \p k values most similar to \p v (excluding v itself), sorted by
  /// descending similarity then ascending value.
  std::vector<std::pair<Value, double>> TopSimilar(size_t attr, const Value& v,
                                                   size_t k) const;

  /// Distinct mined values of attribute \p attr.
  std::vector<Value> MinedValues(size_t attr) const;

  /// Number of stored (non-zero, off-diagonal) similarity entries.
  size_t NumStoredPairs() const;

  /// All stored entries of one attribute as (value_a, value_b, sim) triples
  /// with a < b by index order; used by persistence.
  std::vector<std::tuple<Value, Value, double>> Entries(size_t attr) const;

  /// Registers an attribute's value universe (persistence). Values must be
  /// distinct; existing data for the attribute is replaced.
  Status SetValues(size_t attr, std::vector<Value> values);

  /// Stores one symmetric similarity entry (persistence). Both values must
  /// have been registered via SetValues.
  Status SetSimilarity(size_t attr, const Value& a, const Value& b,
                       double sim);

 private:
  friend class SimilarityMiner;

  struct AttrModel {
    std::unordered_map<Value, size_t, ValueHash> index;
    std::vector<Value> values;
    // Sparse symmetric matrix: key = i * num_values + j with i < j.
    std::unordered_map<uint64_t, double> sim;
  };

  const AttrModel* ModelFor(size_t attr) const;

  std::unordered_map<size_t, AttrModel> attrs_;
};

/// Wall-clock breakdown of similarity mining (paper Table 2 reports the two
/// phases separately).
struct SimilarityTimings {
  double supertuple_seconds = 0.0;
  double estimation_seconds = 0.0;
};

/// \brief The "Similarity Miner" subsystem of Figure 1.
class SimilarityMiner {
 public:
  explicit SimilarityMiner(SimilarityMinerOptions options)
      : options_(options) {}
  SimilarityMiner() : SimilarityMiner(SimilarityMinerOptions{}) {}

  /// Mines pairwise similarities for every categorical attribute of
  /// \p sample. \p wimp holds the normalized importance weight of each
  /// attribute (Algorithm 2); feature weights are renormalized over the
  /// unbound attributes of each supertuple so VSim ∈ [0,1].
  Result<ValueSimilarityModel> Mine(const Relation& sample,
                                    const std::vector<double>& wimp,
                                    SimilarityTimings* timings = nullptr) const;

  /// Mines similarities for selected categorical attributes only.
  Result<ValueSimilarityModel> MineAttributes(
      const Relation& sample, const std::vector<double>& wimp,
      const std::vector<size_t>& attributes,
      SimilarityTimings* timings = nullptr) const;

 private:
  SimilarityMinerOptions options_;
};

}  // namespace aimq

#endif  // AIMQ_SIMILARITY_VALUE_SIMILARITY_H_
