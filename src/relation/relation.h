// Relation: an in-memory row store with a schema. This is the substrate the
// simulated "autonomous Web database" stores its data in, and also the
// container for probed samples.

#ifndef AIMQ_RELATION_RELATION_H_
#define AIMQ_RELATION_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "relation/columnar.h"
#include "relation/schema.h"
#include "relation/tuple.h"
#include "util/rng.h"
#include "util/status.h"

namespace aimq {

/// The row check every validated entry point shares (Relation::Append,
/// ColumnarRelation::Extend, live ingest): arity, then per-attribute type,
/// nulls allowed anywhere. \p label names the row in the arity error
/// ("<label> arity N does not match schema arity M").
Status ValidateTuple(const Schema& schema, const Tuple& tuple,
                     std::string_view label = "tuple");

/// \brief Schema + rows. Rows are validated on append (arity and type).
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  // The columnar snapshot is immutable once built, so copies share it;
  // appends to either copy drop only that copy's reference.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }
  size_t NumTuples() const { return tuples_.size(); }
  bool Empty() const { return tuples_.empty(); }

  const Tuple& tuple(size_t row) const { return tuples_[row]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Appends a tuple, validating arity and per-attribute value type
  /// (nulls are allowed anywhere).
  Status Append(Tuple tuple);

  /// Appends without validation; for trusted bulk loads (generators).
  void AppendUnchecked(Tuple tuple) {
    InvalidateColumnar();
    tuples_.push_back(std::move(tuple));
  }

  /// Dictionary-encoded columnar snapshot of the current rows, built lazily
  /// on first use and cached until the relation is mutated. Thread-safe; the
  /// returned snapshot stays valid after the relation mutates or dies.
  std::shared_ptr<const ColumnarRelation> columnar() const;

  /// Distinct non-null values of the attribute at \p attr_index, in first-seen
  /// order. Served from the attribute dictionary of columnar().
  std::vector<Value> DistinctValues(size_t attr_index) const;

  /// Number of distinct non-null values of the attribute at \p attr_index.
  size_t DistinctCount(size_t attr_index) const;

  /// Simple random sample without replacement of \p sample_size rows (all
  /// rows if sample_size >= NumTuples()). Deterministic given \p rng.
  Relation SampleWithoutReplacement(size_t sample_size, Rng* rng) const;

  /// First \p n rows (all if n >= NumTuples()).
  Relation Head(size_t n) const;

  /// Serializes to CSV (header row + one row per tuple).
  Status WriteCsv(const std::string& path) const;

  /// Loads a relation with the given schema from a CSV file written by
  /// WriteCsv (header row is validated against the schema).
  static Result<Relation> ReadCsv(const std::string& path,
                                  const Schema& schema);

 private:
  void InvalidateColumnar() {
    // Mutation takes only the brief cache mutex — never the build mutex —
    // so an ingester is never parked behind a concurrent O(rows) encode
    // (the deadlock-prone relation-lock → rebuild-mutex ordering is gone;
    // see DESIGN.md §5e, "Lock order").
    std::lock_guard<std::mutex> lock(columnar_cache_mu_);
    columnar_.reset();
    ++columnar_generation_;
  }

  Schema schema_;
  std::vector<Tuple> tuples_;
  // Lock order (DESIGN.md §5e): columnar_build_mu_ may be held while taking
  // columnar_cache_mu_, never the reverse. The cache mutex guards only the
  // pointer + generation (O(1) critical sections); the build mutex
  // serializes the expensive snapshot encodes.
  mutable std::mutex columnar_build_mu_;
  mutable std::mutex columnar_cache_mu_;
  mutable uint64_t columnar_generation_ = 0;  // bumped by every mutation
  mutable std::shared_ptr<const ColumnarRelation> columnar_;
};

}  // namespace aimq

#endif  // AIMQ_RELATION_RELATION_H_
