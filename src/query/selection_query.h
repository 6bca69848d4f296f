// SelectionQuery: a conjunctive precise query, the only query form the
// autonomous Web database can execute (paper §3.1 constraint 1).

#ifndef AIMQ_QUERY_SELECTION_QUERY_H_
#define AIMQ_QUERY_SELECTION_QUERY_H_

#include <string>
#include <vector>

#include "query/predicate.h"
#include "relation/relation.h"

namespace aimq {

/// \brief Conjunction of precise predicates over one relation.
class SelectionQuery {
 public:
  SelectionQuery() = default;
  explicit SelectionQuery(std::vector<Predicate> predicates)
      : predicates_(std::move(predicates)) {}

  /// Builds the fully-bound equality query corresponding to a tuple: one
  /// Attr=value predicate per non-null attribute. This is how Algorithm 1
  /// treats base-set tuples as relaxable selection queries.
  static SelectionQuery FromTuple(const Schema& schema, const Tuple& tuple);

  const std::vector<Predicate>& predicates() const { return predicates_; }
  size_t NumPredicates() const { return predicates_.size(); }
  bool Empty() const { return predicates_.empty(); }

  void AddPredicate(Predicate p) { predicates_.push_back(std::move(p)); }

  /// Returns a copy with every predicate on an attribute in \p drop removed.
  SelectionQuery DropAttributes(const std::vector<std::string>& drop) const;

  /// True iff some predicate constrains \p attribute.
  bool Binds(const std::string& attribute) const;

  /// Conjunctive evaluation against one tuple. Errors if any predicate is
  /// non-executable (kLike) or ill-typed.
  Result<bool> Matches(const Schema& schema, const Tuple& tuple) const;

  /// "R(P1, P2, ...)"-style rendering.
  std::string ToString() const;

  bool operator==(const SelectionQuery& other) const {
    return predicates_ == other.predicates_;
  }

 private:
  std::vector<Predicate> predicates_;
};

}  // namespace aimq

#endif  // AIMQ_QUERY_SELECTION_QUERY_H_
