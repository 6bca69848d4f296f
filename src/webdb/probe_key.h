// ProbeKey: the integer identity of one probe against one snapshot lineage.
//
// Every probe cache on the query path keys on it: the engine's shared
// ProbeCache, its per-call memo, and the per-shard caches. A key is a short
// run of 64-bit words. One header word names the snapshot's lineage
// (ColumnarRelation::lineage_uid), then come the query's predicates as
// sorted terms, so syntactically different but equivalent conjunctions
// share a key. A term is one head word packing (attribute, operator, operand
// kind) plus, for a dictionary-resolved equality, the operand's code; a
// numeric operand adds its double's bit pattern as a second word. The rare
// operands with no integer form (a string the dictionary does not hold, an
// attribute the schema does not name) append their bytes, so distinct
// queries never share a key.
//
// The key carries no row count: every snapshot of a lineage shares it, and
// the cache entry records how many rows its answer covers (ProbeCache).
// Codes keep their meaning across a lineage (dictionaries are append-only),
// so equal keys mean equivalent queries at every version.
//
// Keys up to kInlineWords words (every CarDB probe) live inline, and the
// hash is computed once when the key is finished, outside any cache lock: a
// cache hit costs one hash-table probe and no allocation.
//
// The words also decode back into terms (TermReader), which is what lets a
// source evaluate a cached probe's delta rows straight from its key
// (WebDatabase::ExecuteKeyFrom). CanError is the one rule that decides when
// it may not: see its comment.

#ifndef AIMQ_WEBDB_PROBE_KEY_H_
#define AIMQ_WEBDB_PROBE_KEY_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "query/selection_query.h"
#include "relation/columnar.h"
#include "relation/schema.h"

namespace aimq {

/// \brief Hashable, copyable probe identity: lineage + sorted coded terms.
class ProbeKey {
 public:
  static constexpr size_t kInlineWords = 16;
  /// Attribute field of a term on an attribute the schema does not name.
  static constexpr size_t kUnknownAttr = 0xFFFFFF;

  class Builder;
  class TermReader;

  /// How a term's operand is held, in the kind field of its head word.
  enum TermKind : uint64_t {
    kCodeTerm = 0,  ///< dictionary code, in the head word's low 32 bits
    kNullTerm = 1,  ///< null operand
    kNumTerm = 2,   ///< double bit pattern in the next word
    kStrTerm = 3,   ///< string bytes in the following words
  };

  /// One predicate of a key, as TermReader decodes it. Its operand is a
  /// dictionary code (equality on a value the snapshot holds), null, a
  /// double (range bounds, and equality on a number the dictionary does
  /// not hold), or a string the dictionary does not hold (its bytes are not
  /// decoded).
  struct Term {
    size_t attr = 0;  ///< kUnknownAttr for a name the schema lacks
    CompareOp op = CompareOp::kEq;
    TermKind kind = kCodeTerm;
    ValueId code = 0;  ///< kCodeTerm
    double num = 0.0;  ///< kNumTerm

    /// True when evaluating this term against \p schema's rows can fail:
    /// the per-term test of ProbeKey::CanError.
    bool CanError(const Schema& schema) const;
  };

  ProbeKey() = default;
  ProbeKey(const ProbeKey& other);
  ProbeKey(ProbeKey&& other) noexcept;
  ProbeKey& operator=(const ProbeKey& other);
  ProbeKey& operator=(ProbeKey&& other) noexcept;
  ~ProbeKey();

  /// The key of \p query against \p cols: predicates resolved through the
  /// snapshot's dictionaries and sorted, so predicate order never yields
  /// distinct keys. Equal values share a key exactly when equality
  /// evaluates them alike (-0.0 finds 0.0's code; a NaN, which the
  /// dictionary never finds, keys on its bits).
  static ProbeKey ForQuery(const ColumnarRelation& cols,
                           const SelectionQuery& query);

  size_t hash() const { return hash_; }
  /// Number of 64-bit words.
  size_t size() const { return size_; }
  /// The key's words, size() of them (ProbeCache stores them at their
  /// exact length).
  const uint64_t* data() const { return words(); }

  /// The fallback rule of key-native evaluation: true when evaluating some
  /// term against \p schema's rows can fail (Term::CanError). That is a
  /// term on an unknown attribute or with a 'like' operator (the source
  /// rejects both), or a range whose operand is not a number or whose
  /// attribute is not numeric (it fails on every non-null row it reaches).
  /// A query's evaluation stops at its first false predicate, so which of
  /// its failing predicates is reached depends on query order, which the
  /// key's sorted terms do not keep: such keys are evaluated from their
  /// SelectionQuery.
  /// Every other term evaluates the same in any order and never fails:
  ///   - a code equality compares the row's code;
  ///   - a numeric range on a numeric attribute compares the row's number,
  ///     false on null rows (numeric attributes hold only numbers:
  ///     ValidateTuple);
  ///   - a null operand, and equality on a string or number the dictionary
  ///     does not hold, match no row: the key was built against the
  ///     snapshot it is evaluated on, and a value its dictionary does not
  ///     hold is held by none of its rows.
  bool CanError(const Schema& schema) const;

  bool operator==(const ProbeKey& other) const;

 private:
  bool heap() const { return capacity_ > kInlineWords; }
  const uint64_t* words() const { return heap() ? heap_ : inline_; }
  uint64_t* mutable_words() { return heap() ? heap_ : inline_; }
  void CopyFrom(const ProbeKey& other);
  void MoveFrom(ProbeKey* other);
  void Release();

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineWords;
  uint64_t hash_ = 0;
  union {
    uint64_t inline_[kInlineWords];
    uint64_t* heap_;
  };
};

/// Appends terms in key order; Finish() seals the key and its hash.
///
/// Key order is ascending (attribute, operator), which is the order
/// ForQuery sorts into; callers that append terms themselves (the
/// relaxation loop) must append in that order to produce the same key as
/// the equivalent SelectionQuery.
class ProbeKey::Builder {
 public:
  /// Starts a key against \p cols's lineage.
  explicit Builder(const ColumnarRelation& cols);

  /// `attr op value` where \p code is value's dictionary code.
  void AddCode(size_t attr, CompareOp op, ValueId code);
  /// `attr op value` for a numeric value keyed by its bit pattern (range
  /// bounds, and equality on numerics the dictionary does not hold).
  void AddNum(size_t attr, CompareOp op, double value);

  ProbeKey Finish() &&;

 private:
  friend class ProbeKey;
  void Push(uint64_t word);
  void PushBytes(std::string_view bytes);

  ProbeKey key_;
};

/// Decodes a key's terms in key order: ForQuery's layout read back, with the
/// bytes of string operands and unknown attribute names skipped (they only
/// keep distinct keys apart). The reader borrows the key's words: the key
/// must outlive it.
class ProbeKey::TermReader {
 public:
  explicit TermReader(const ProbeKey& key);

  /// Decodes the next term into \p term; false after the last one.
  bool Next(Term* term);

 private:
  void SkipBytes();

  const uint64_t* pos_;
  const uint64_t* end_;
};

/// Hash functor returning the key's precomputed hash.
struct ProbeKeyHash {
  size_t operator()(const ProbeKey& key) const noexcept { return key.hash(); }
};

}  // namespace aimq

#endif  // AIMQ_WEBDB_PROBE_KEY_H_
