// CodedConjunction: a conjunctive SelectionQuery compiled against one
// ColumnarRelation's dictionaries, so per-row evaluation is pure integer and
// double comparisons — no string hashing, no Value variant dispatch.
//
// The compiled form replicates Predicate::Matches / SelectionQuery::Matches
// semantics bit-for-bit, including the quirky corners:
//   - a null query value makes the predicate false (never an error), even
//     for kLike;
//   - equality never errors: a type-mismatched or never-seen value simply
//     matches nothing (each query value is resolved through the dictionary
//     once, so NaN matches nothing and -0.0 matches 0.0, exactly as the
//     row-store Value comparison behaves);
//   - a range (or kLike) predicate errors only for rows whose stored value
//     is non-null — null rows short-circuit to false first — and an earlier
//     false predicate in query order suppresses a later predicate's error;
//   - an unknown attribute reproduces Schema::IndexOf's error status, but
//     only when a row is actually evaluated (an empty relation scans clean).

#ifndef AIMQ_WEBDB_CODED_QUERY_H_
#define AIMQ_WEBDB_CODED_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "query/selection_query.h"
#include "relation/columnar.h"
#include "util/status.h"

namespace aimq {

/// `a op threshold` for a range operator (false for any other operator).
inline bool RangeMatches(CompareOp op, double a, double threshold) {
  switch (op) {
    case CompareOp::kLt:
      return a < threshold;
    case CompareOp::kLe:
      return a <= threshold;
    case CompareOp::kGt:
      return a > threshold;
    case CompareOp::kGe:
      return a >= threshold;
    default:
      return false;
  }
}

/// \brief A SelectionQuery pre-resolved to integer codes for one relation.
///
/// Holds a pointer to the ColumnarRelation it was compiled against; the
/// caller keeps that snapshot alive for the conjunction's lifetime.
class CodedConjunction {
 public:
  /// Compiles \p query against \p data. Total: malformed predicates compile
  /// to forms that reproduce their row-store evaluation errors lazily.
  static CodedConjunction Compile(const SelectionQuery& query,
                                  const ColumnarRelation& data);

  /// Conjunctive evaluation of one row; mirrors SelectionQuery::Matches.
  Result<bool> EvaluateRow(uint32_t row) const;

  /// Full scan; mirrors SelectionQuery::Evaluate (row indices ascending).
  /// With \p from_row > 0 it evaluates only rows [from_row, NumRows()) —
  /// the rows a cached answer over the first from_row rows has not seen.
  /// Iterates block windows via ColumnarRelation::ScanBlocks, so packed
  /// snapshots decode (and page in) one block per involved column at a time.
  /// When every predicate compiled to an error-free code form (kEqCode, or
  /// kRange over an all-numeric dictionary), the scan runs as a batched
  /// bitmask filter through the simd kernel layer: one bitmask per
  /// predicate per window, ANDed across predicates, row ids emitted from
  /// the surviving mask. Results are bit-identical to the per-row path.
  Result<std::vector<uint32_t>> EvaluateAll(size_t from_row = 0) const;

  /// Evaluates only \p candidates (in the given order), keeping matches.
  Result<std::vector<uint32_t>> EvaluateCandidates(
      std::span<const uint32_t> candidates) const;

  size_t NumPredicates() const { return preds_.size(); }

 private:
  enum class Kind : uint8_t {
    kNeverMatch,       // null query value: always false, never errors
    kEqCode,           // code == target (target may be the absent sentinel)
    kRange,            // numeric comparison via per-code tables
    kErrorUnlessNull,  // false on null rows, a fixed error otherwise
    kCompileError,     // unknown attribute: errors on any row
  };

  struct Pred {
    Kind kind = Kind::kNeverMatch;
    CompareOp op = CompareOp::kEq;
    size_t attr = 0;
    ValueId target = 0;        // kEqCode
    double threshold = 0.0;    // kRange
    // kRange: per-dictionary-code operand table. code_numeric[c] says whether
    // the interned value behind code c is numeric (it can be false only for
    // relations that bypassed type validation); code_num[c] is its double.
    std::vector<uint8_t> code_numeric;
    std::vector<double> code_num;
    // kRange with an all-numeric dictionary: match_table[c] != 0 iff code c
    // satisfies the comparison (precomputed from the same code_num doubles
    // the row path compares, so the two paths agree bit-for-bit). Padded
    // beyond dict size for the simd gather kernel; empty when the predicate
    // can error.
    std::vector<uint8_t> match_table;
    Status error = Status::OK();  // kErrorUnlessNull / kCompileError payload
  };

  // Shared conjunctive evaluation of one row. \p code_at(i, pred) supplies
  // the row's code for preds_[i]'s attribute; the row path reads it through
  // CodeAt, the window path through block-local pointers. Defined in the
  // .cc (both instantiations live there).
  template <typename CodeFn>
  Result<bool> EvalRowWith(CodeFn&& code_at) const;

  const ColumnarRelation* data_ = nullptr;
  std::vector<Pred> preds_;
};

}  // namespace aimq

#endif  // AIMQ_WEBDB_CODED_QUERY_H_
