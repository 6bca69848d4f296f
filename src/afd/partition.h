// Stripped partitions — the core data structure of TANE (Huhtala et al.,
// ICDE 1998). A partition π_X groups rows that agree on the attribute set X;
// the *stripped* form drops singleton classes. Partition products and the g3
// error measures (Kivinen & Mannila) are computed here.

#ifndef AIMQ_AFD_PARTITION_H_
#define AIMQ_AFD_PARTITION_H_

#include <cstddef>
#include <vector>

#include "relation/columnar.h"
#include "relation/relation.h"

namespace aimq {

/// \brief Equivalence classes of row indices, singletons stripped.
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Wraps already-stripped \p classes over \p num_rows rows: each class
  /// holds >= 2 ascending row ids, and classes are ordered by first row.
  StrippedPartition(size_t num_rows, std::vector<std::vector<size_t>> classes);

  /// π_∅: a single class containing every row (all rows agree on ∅).
  /// With num_rows <= 1 the class would be a singleton and is stripped.
  static StrippedPartition Universe(size_t num_rows);

  /// π_{A}: rows grouped by the value of the attribute at \p attr_index.
  /// Nulls compare equal to each other (they form one class). Runs over the
  /// relation's dictionary-encoded columnar snapshot: rows are grouped by
  /// dense value code with a counting pass, not a Value-keyed hash map.
  static StrippedPartition FromColumn(const Relation& relation,
                                      size_t attr_index);

  /// As FromColumn, over an existing columnar snapshot.
  static StrippedPartition FromColumnCoded(const ColumnarRelation& data,
                                           size_t attr_index);

  /// π_{X∪Y} from π_X (this) and π_Y (\p other): TANE's linear-time
  /// partition product.
  StrippedPartition Product(const StrippedPartition& other) const;

  size_t num_rows() const { return num_rows_; }

  /// Stripped classes (each of size >= 2).
  const std::vector<std::vector<size_t>>& classes() const { return classes_; }

  /// |π_X|: total number of equivalence classes including stripped
  /// singletons.
  size_t NumClasses() const;

  /// Rows covered by non-singleton classes (TANE's ||π||).
  size_t NumCoveredRows() const { return covered_rows_; }

  /// g3 error of X as a key: minimum fraction of rows to delete so that X is
  /// a key, i.e. (num_rows − |π_X|) / num_rows. 0 for an empty relation.
  double KeyError() const;

  /// g3 error of the FD X→A given π_X (this) and π_{X∪A} (\p lhs_rhs):
  /// minimum fraction of rows to delete so the FD holds exactly.
  double FdError(const StrippedPartition& lhs_rhs) const;

 private:
  void RecomputeCovered();

  size_t num_rows_ = 0;
  size_t covered_rows_ = 0;
  std::vector<std::vector<size_t>> classes_;
};

}  // namespace aimq

#endif  // AIMQ_AFD_PARTITION_H_
