// SuperTuple: the answerset of an AV-pair query, compressed into one bag of
// keywords per unbound attribute (paper §5.2, Table 1).
//
// Numeric attributes are discretized into equi-width bins so that, e.g.,
// Mileage contributes keywords like "10k-15k" exactly as in the paper's
// Table 1. Bin boundaries are computed once per sample so every supertuple
// of that sample shares the same vocabulary.
//
// Bags are dictionary-encoded: each keyword is a dense integer id drawn from
// a per-sample vocabulary (keyword ids are deduplicated by rendered label,
// so two bins whose labels collide merge exactly as the historical
// string-keyed bags merged them). Bag-Jaccard is then a merge of two sorted
// (id, count) arrays; the vocabulary renders ids back to keywords.

#ifndef AIMQ_SIMILARITY_SUPERTUPLE_H_
#define AIMQ_SIMILARITY_SUPERTUPLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "relation/columnar.h"
#include "relation/relation.h"
#include "similarity/av_pair.h"
#include "storage/spill_file.h"
#include "util/coded_bag.h"
#include "util/status.h"

namespace aimq {

/// Options for supertuple construction.
struct SuperTupleOptions {
  /// Number of equi-width bins used to discretize each numeric attribute.
  /// The paper's Table 1 shows ~5k-wide price/mileage buckets; 20 bins over
  /// typical used-car ranges is the closest equi-width equivalent.
  size_t numeric_bins = 20;
};

/// \brief Per-sample keyword vocabulary shared by all supertuples built from
/// one SuperTupleBuilder: keyword id -> rendered keyword string, per
/// attribute, plus the dictionary-code -> keyword-id translation used while
/// scanning.
struct SuperTupleVocab {
  /// Sentinel in code_to_keyword for values whose keyword is empty (null or
  /// the empty categorical string): the value contributes nothing to bags.
  static constexpr uint32_t kNoKeyword = UINT32_MAX;

  /// [attr][dictionary code] -> keyword id (or kNoKeyword).
  std::vector<std::vector<uint32_t>> code_to_keyword;
  /// [attr][keyword id] -> rendered keyword.
  std::vector<std::vector<std::string>> keywords;
};

/// \brief One supertuple: per-attribute keyword bags describing the tuples
/// that match an AV-pair.
class SuperTuple {
 public:
  SuperTuple() = default;
  SuperTuple(AVPair av, size_t num_attrs) : av_(std::move(av)) {
    coded_bags_.resize(num_attrs);
  }
  SuperTuple(AVPair av, size_t num_attrs,
             std::shared_ptr<const SuperTupleVocab> vocab)
      : av_(std::move(av)), vocab_(std::move(vocab)) {
    coded_bags_.resize(num_attrs);
  }

  const AVPair& av() const { return av_; }

  /// Number of sample tuples matching the AV-pair.
  size_t support() const { return support_; }

  /// The coded bag of the attribute at \p attr (empty for the bound
  /// attribute).
  const CodedBag& coded_bag(size_t attr) const { return coded_bags_[attr]; }

  /// The vocabulary the keyword ids index (nullptr when built without one).
  const SuperTupleVocab* vocab() const { return vocab_.get(); }

  void IncrementSupport() { ++support_; }

  /// Adds one occurrence of keyword \p keyword_id to attribute \p attr's bag.
  void AddKeyword(size_t attr, uint32_t keyword_id) {
    coded_bags_[attr].Add(keyword_id);
  }

  /// Sort-aggregates all bags; call once after the last AddKeyword.
  void FinalizeBags() {
    for (CodedBag& b : coded_bags_) b.Finalize();
  }

  /// Table-1-style rendering (top keywords of every unbound attribute).
  std::string ToString(const Schema& schema, size_t max_keywords = 5) const;

  /// Serializes the finalized bags into \p file and releases their memory,
  /// returning the record's offset for LoadBags. Memory-budget hook for
  /// mining at scale: between construction and pairwise estimation, only the
  /// attribute currently being estimated needs its bags resident.
  Result<uint64_t> SpillBags(storage::SpillFile* file);

  /// Restores bags previously written by SpillBags (exact round trip: the
  /// reloaded bags are entry-identical, so downstream VSim arithmetic is
  /// bit-identical to the never-spilled path).
  Status LoadBags(const storage::SpillFile& file, uint64_t offset);

  bool bags_spilled() const { return bags_spilled_; }

 private:
  AVPair av_;
  size_t support_ = 0;
  std::vector<CodedBag> coded_bags_;
  bool bags_spilled_ = false;
  std::shared_ptr<const SuperTupleVocab> vocab_;
};

/// \brief Shared discretization + supertuple construction over one sample.
class SuperTupleBuilder {
 public:
  /// Computes numeric bin boundaries and the keyword vocabulary from
  /// \p sample. The sample must stay alive while the builder is used.
  SuperTupleBuilder(const Relation& sample, SuperTupleOptions options);

  /// The keyword a value of attribute \p attr contributes to a bag:
  /// the categorical string itself, or the numeric bin label.
  std::string KeywordFor(size_t attr, const Value& v) const;

  /// Builds the supertuples of *all* distinct values of categorical
  /// attribute \p attr in one scan. Order matches
  /// sample.DistinctValues(attr).
  Result<std::vector<SuperTuple>> BuildAll(size_t attr) const;

  /// Builds the supertuple of a single AV-pair.
  Result<SuperTuple> Build(const AVPair& av) const;

  /// Lower edge of bin \p b for numeric attribute \p attr (testing).
  double BinLower(size_t attr, size_t b) const;

  /// The shared keyword vocabulary (testing/inspection).
  const std::shared_ptr<const SuperTupleVocab>& vocab() const {
    return vocab_;
  }

 private:
  const Relation& sample_;
  std::shared_ptr<const ColumnarRelation> cols_;
  SuperTupleOptions options_;
  // Per attribute: [min, width] for numeric attributes, unused otherwise.
  std::vector<double> bin_min_;
  std::vector<double> bin_width_;
  std::shared_ptr<const SuperTupleVocab> vocab_;
};

}  // namespace aimq

#endif  // AIMQ_SIMILARITY_SUPERTUPLE_H_
