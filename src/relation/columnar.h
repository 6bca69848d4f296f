// ColumnarRelation: the dictionary-encoded columnar view of a Relation.
//
// Every attribute — categorical and numeric alike — is stored as one dense
// ValueId column, interned through a per-attribute ValueDict in first-seen
// order. Numeric attributes additionally keep a raw double column (0.0 at
// nulls; nullness is carried by the code column) so arithmetic never has to
// go back through the dictionary. The encoding is built once per relation
// snapshot; all hot paths (partition refinement, supertuple bags, probe
// evaluation, Sim lookups) then compare 32-bit integers instead of hashing
// std::string payloads.
//
// A snapshot exists in one of two storage modes:
//   - plain: every code column is a resident std::vector<ValueId> (the
//     historical layout, built by the ColumnarRelation(const Relation&)
//     constructor);
//   - packed: code columns live in a storage::CodeBlockStore — bit-packed
//     blocks held in memory, decoded on demand under a byte budget. Packed snapshots are produced by
//     ColumnarBuilder, which streams rows in without ever materializing a
//     row-store Relation.
// Extend keeps its base's form: a plain base gives a plain snapshot and a
// packed base a packed one.
// All consumers go through the mode-agnostic accessors: CodeAt/NumAt for
// random access, ScanBlocks for sequential scans over aligned per-block
// windows. The plain mode is the bit-identical oracle for the packed mode:
// for the same row stream, both return identical codes, numbers, and
// canonical rows.
//
// Row identity: rows whose full code vectors are equal hold equal Tuples and
// vice versa (each NaN occurrence gets a fresh dictionary code, so NaN != NaN
// is preserved). CanonicalRow maps every row to the first row with the same
// code vector, giving the engine an O(1) integer substitute for
// unordered_set<Tuple> deduplication. In packed mode the canonical map is
// built lazily on first use (one streaming pass over all columns).
//
// Lineage: snapshots that share a lineage_uid() are row prefixes of one
// another. A new snapshot starts a fresh lineage; the first Extend of a
// snapshot inherits it, any later one starts a new lineage. So for two snapshots of one lineage with
// N <= M rows, the N-row snapshot is exactly the first N rows of the M-row
// one, with the same codes — what lets probe-cache entries outlive a
// publish (DESIGN.md §5i).

#ifndef AIMQ_RELATION_COLUMNAR_H_
#define AIMQ_RELATION_COLUMNAR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "relation/schema.h"
#include "relation/tuple.h"
#include "relation/value_dict.h"
#include "storage/code_block_store.h"
#include "util/status.h"

namespace aimq {

class Relation;
class ColumnarBuilder;

/// \brief Immutable dictionary-encoded snapshot of a Relation's rows.
class ColumnarRelation {
 public:
  /// Encodes all rows of \p relation into plain (fully resident) columns.
  /// The columnar snapshot copies the schema and interned values; it does
  /// not retain a pointer to the source.
  explicit ColumnarRelation(const Relation& relation);

  /// Incremental snapshot production (live ingest, DESIGN.md §5i): a new
  /// snapshot in \p base's storage form holding \p base's rows followed by
  /// \p delta, tagged \p new_version. Because ValueDict::Intern is
  /// append-only and every build path interns row-major in attribute order,
  /// the result is bit-identical to a from-scratch encode of the
  /// concatenated row stream — same codes, same dictionaries, same canonical
  /// rows. Only the delta is interned; the rest is copied in O(base rows):
  /// the dictionaries and either the plain code and number columns or, for
  /// a packed base, every block (read per column and re-packed into a new
  /// store with the base store's block size and budget). The first Extend
  /// of \p base inherits its
  /// lineage. A plain result also copies the canonical-row vector and takes
  /// over the base's canonical-row index (when \p base was itself made by
  /// Extend), so it hashes only the delta rows; a later Extend of the same
  /// base starts a new lineage and rebuilds the index from the base's
  /// representatives. A packed result builds its canonical rows lazily.
  /// Delta rows are validated with ValidateTuple.
  static Result<std::shared_ptr<const ColumnarRelation>> Extend(
      const ColumnarRelation& base, const std::vector<Tuple>& delta,
      uint64_t new_version);

  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }
  size_t NumAttributes() const { return dicts_.size(); }

  /// Monotonic publish version of this snapshot within live ingest (0 for
  /// snapshots built outside it).
  uint64_t snapshot_version() const { return snapshot_version_; }

  /// Process-unique lineage id (see file comment). Probe keys carry it in
  /// place of snapshot identity, so an entry cached against one snapshot
  /// serves every later snapshot of the lineage after evaluating only the
  /// rows it has not seen.
  uint64_t lineage_uid() const { return lineage_uid_; }

  /// True when code columns live in a block store instead of resident
  /// vectors (see file comment).
  bool packed() const { return store_ != nullptr; }

  /// Per-attribute dictionary (code -> Value, first-seen order).
  const ValueDict& dict(size_t attr) const { return dicts_[attr]; }

  /// The code at (attr, row) in either storage mode; ValueDict::kNullCode
  /// marks null.
  ValueId CodeAt(size_t attr, size_t row) const {
    return store_ != nullptr ? store_->At(attr, row) : codes_[attr][row];
  }

  /// The raw double at (attr, row) of a numeric attribute (0.0 at nulls —
  /// consult CodeAt for nullness), in either storage mode. Packed mode resolves through a per-code table
  /// built from the same Value::AsNum() calls the plain column stores, so
  /// the two modes are bit-identical.
  double NumAt(size_t attr, size_t row) const {
    if (store_ == nullptr) return nums_[attr][row];
    const ValueId code = store_->At(attr, row);
    return code == ValueDict::kNullCode ? 0.0 : code_num_[attr][code];
  }

  /// NumAt for a row whose \p code the caller has already read (a scan
  /// window's), without reading it again.
  double NumAt(size_t attr, size_t row, ValueId code) const {
    if (store_ == nullptr) return nums_[attr][row];
    return code == ValueDict::kNullCode ? 0.0 : code_num_[attr][code];
  }

  bool is_null(size_t attr, size_t row) const {
    return CodeAt(attr, row) == ValueDict::kNullCode;
  }

  /// One window of a sequential scan: \p num_rows aligned code entries per
  /// requested attribute, starting at global row \p begin_row. The pointers
  /// stay valid until the cursor's next Next() call.
  struct CodeWindow {
    size_t begin_row = 0;
    size_t num_rows = 0;
    /// codes[i] points at the window's codes of the i-th requested
    /// attribute.
    std::vector<const ValueId*> codes;
  };

  /// Sequential reader yielding aligned CodeWindows over the requested
  /// attributes. Plain mode yields one window spanning the whole relation;
  /// packed mode yields one window per block, decoding each block on
  /// demand.
  class WindowCursor {
   public:
    /// Advances to the next window; false at end of relation.
    bool Next(CodeWindow* w);

   private:
    friend class ColumnarRelation;
    WindowCursor(const ColumnarRelation* rel, std::vector<size_t> attrs,
                 size_t from_row);
    const ColumnarRelation* rel_;
    std::vector<size_t> attrs_;
    size_t from_row_;
    std::vector<storage::CodeBlockStore::Cursor> cursors_;  // packed mode
    bool done_ = false;
  };

  /// Opens a sequential scan over the code columns of \p attrs, covering
  /// rows [from_row, NumRows()). Packed mode starts at from_row's block and
  /// never decodes the blocks before it.
  WindowCursor ScanBlocks(std::vector<size_t> attrs,
                          size_t from_row = 0) const {
    return WindowCursor(this, std::move(attrs), from_row);
  }

  /// Index of the first row whose full code vector equals \p row's. Two rows
  /// share a canonical row iff their materialized Tuples compare equal.
  /// Packed mode builds the map lazily (thread-safe) on first call.
  uint32_t CanonicalRow(uint32_t row) const {
    if (store_ != nullptr) EnsureCanonical();
    return canonical_[row];
  }

  /// Rebuilds the row-oriented Tuple for \p row from the dictionaries.
  Tuple MaterializeTuple(size_t row) const;

  /// The Value at (attr, row), decoded through the dictionary.
  Value ValueAt(size_t attr, size_t row) const;

  /// The block store backing a packed snapshot; nullptr in plain mode.
  const storage::CodeBlockStore* block_store() const { return store_.get(); }

 private:
  friend class ColumnarBuilder;
  // One representative row per distinct code vector (defined in the .cc).
  struct CanonicalIndex;

  ColumnarRelation() = default;  // assembled by ColumnarBuilder / Extend

  void EnsureCanonical() const;

  // Fills canonical_[from_row, num_rows_) through \p index, whose code
  // columns must be this snapshot's.
  void AssignCanonical(CanonicalIndex* index, size_t from_row);

  // True for the first caller only: that caller's snapshot continues this
  // one's lineage.
  bool ClaimHeir() const {
    return !has_heir_.exchange(true, std::memory_order_acq_rel);
  }

  // Fresh process-unique lineage_uid_ value.
  static uint64_t NextLineageUid();

  Schema schema_;
  size_t num_rows_ = 0;
  uint64_t snapshot_version_ = 0;
  uint64_t lineage_uid_ = NextLineageUid();
  mutable std::atomic<bool> has_heir_{false};
  std::vector<ValueDict> dicts_;             // one per attribute
  std::vector<std::vector<ValueId>> codes_;  // [attr][row]; plain mode
  std::vector<std::vector<double>> nums_;    // [attr][row]; plain + numeric
  std::unique_ptr<storage::CodeBlockStore> store_;  // packed mode
  std::vector<std::vector<double>> code_num_;  // [attr][code]; packed+numeric

  // Plain mode fills canonical_ eagerly in the constructor; packed mode
  // fills it on first CanonicalRow() call.
  mutable std::once_flag canonical_once_;
  mutable std::vector<uint32_t> canonical_;  // [row] -> first identical row
  // Kept only by plain snapshots made by Extend, and moved to the first
  // heir (ClaimHeir guards the hand-off); null otherwise.
  mutable std::shared_ptr<CanonicalIndex> canonical_index_;
};

/// \brief Streaming constructor of packed ColumnarRelation snapshots.
///
/// Rows are appended one at a time and encoded straight into block storage;
/// peak memory is one open block per column plus the dictionaries, never the
/// full relation. Interning order matches the plain constructor exactly (row
/// major, attribute order), so a packed snapshot of the same row stream is
/// bit-identical to the plain snapshot: same codes, same dictionaries, same
/// canonical rows.
class ColumnarBuilder {
 public:
  struct Options {
    storage::BlockStoreOptions store;
  };

  /// Creates a builder for \p schema.
  static Result<std::unique_ptr<ColumnarBuilder>> Create(Schema schema,
                                                         Options opts);

  /// Appends one row; \p values.size() must equal the schema arity.
  Status AppendRow(const std::vector<Value>& values);

  /// Convenience overload for row-store tuples.
  Status AppendRow(const Tuple& tuple) { return AppendRow(tuple.values()); }

  size_t NumRowsAppended() const { return rows_; }

  /// Seals the block store and assembles the packed snapshot. The builder is
  /// consumed: no appends after Finish.
  Result<std::shared_ptr<const ColumnarRelation>> Finish();

 private:
  ColumnarBuilder() = default;

  Schema schema_;
  std::vector<ValueDict> dicts_;
  std::vector<std::vector<double>> code_num_;
  std::vector<uint8_t> is_numeric_;  // per attribute
  std::unique_ptr<storage::CodeBlockStore> store_;
  size_t rows_ = 0;
  bool finished_ = false;
};

}  // namespace aimq

#endif  // AIMQ_RELATION_COLUMNAR_H_
