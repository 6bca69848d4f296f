// WebDatabase: the simulated autonomous Web database.
//
// The paper's setting (§3.1) constrains the source to (1) a boolean query
// processing model and (2) no access to internals. This facade enforces that:
// clients can only issue precise conjunctive selection queries and observe
// the returned tuples. Probe accounting (queries issued, tuples shipped)
// backs the efficiency experiments (Figures 6 and 7).
//
// Internally the source evaluates queries over its dictionary-encoded
// columnar snapshot: each query compiles to a CodedConjunction once, and the
// candidate scan is driven from per-code posting lists, so per-row work is
// integer comparison. ExecuteRows is the primary (row-id) entry point; the
// Tuple-returning Execute is a materializing wrapper kept for edges (wire
// protocol, reports, data collection).

#ifndef AIMQ_WEBDB_WEB_DATABASE_H_
#define AIMQ_WEBDB_WEB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/selection_query.h"
#include "relation/columnar.h"
#include "relation/relation.h"
#include "util/status.h"

namespace aimq {

/// Cumulative probe statistics for one client session. Counters are atomic
/// so concurrent Execute() calls (the engine's parallel relaxation fan-out,
/// concurrent query sessions) account without data races; the struct stays
/// copyable with snapshot semantics.
struct ProbeStats {
  std::atomic<uint64_t> queries_issued{0};
  std::atomic<uint64_t> tuples_returned{0};

  ProbeStats() = default;
  ProbeStats(const ProbeStats& other) { *this = other; }
  ProbeStats& operator=(const ProbeStats& other) {
    queries_issued.store(other.queries_issued.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    tuples_returned.store(other.tuples_returned.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    return *this;
  }

  void Reset() {
    queries_issued.store(0, std::memory_order_relaxed);
    tuples_returned.store(0, std::memory_order_relaxed);
  }
};

/// \brief Boolean-query-only facade over a hidden relation.
///
/// ExecuteRows/Execute/FormValues are virtual so tests and adapters can
/// substitute other transports (an HTTP form scraper, a flaky source for
/// failure-injection tests) behind the same probing interface. Overriding
/// ExecuteRows covers both entry points: the default Execute routes through
/// it.
class WebDatabase {
 public:
  /// Takes ownership of the hidden relation. \p name labels the source
  /// ("CarDB", "CensusDB") in diagnostics.
  WebDatabase(std::string name, Relation data)
      : name_(std::move(name)), data_(std::move(data)) {
    BuildIndexes();
  }

  /// Wraps a packed (block-compressed, possibly spilled) columnar snapshot
  /// directly — no row-store copy and no posting lists are materialized, so
  /// a streamed 10M-tuple source costs only its packed blocks plus the
  /// dictionaries. Queries fall back to block scans unless BuildPostingLists
  /// is called; answers are identical either way.
  WebDatabase(std::string name, std::shared_ptr<const ColumnarRelation> cols)
      : name_(std::move(name)),
        data_(cols->schema()),
        cols_(std::move(cols)) {}
  virtual ~WebDatabase() = default;

  /// Materializes per-code posting lists from the columnar snapshot (one
  /// streaming pass over all code columns), enabling index-assisted probe
  /// evaluation for packed sources too. Resident cost is ~4 bytes per
  /// non-null cell, which is why it is opt-in for packed snapshots — a
  /// row-range *shard* of a 10M-tuple source affords it where the whole
  /// source cannot. Idempotent; answers are identical with or without
  /// postings (only the scan strategy changes). Not thread-safe against
  /// in-flight queries: call before serving.
  void BuildPostingLists();

  /// True when per-code posting lists back ExecuteRows' candidate scans.
  bool has_posting_lists() const { return !postings_.empty(); }

  /// Incremental variant of BuildPostingLists for live ingest (DESIGN.md
  /// §5i): reuses \p prev's posting lists — valid because this source's
  /// snapshot extends prev's (append-only dictionaries keep every old code's
  /// meaning, and delta row ids exceed all of prev's, so per-code ascending
  /// order is preserved by appending) — and scans only the delta rows.
  /// Requires prev's snapshot to be a version-ancestor of this one with
  /// prev.NumTuples() <= NumTuples(); falls back to a full build when prev
  /// has no postings. Not thread-safe against in-flight queries: call before
  /// serving.
  void ExtendPostingLists(const WebDatabase& prev);

  const std::string& name() const { return name_; }

  /// The projected schema is public (it is visible on the Web form).
  const Schema& schema() const { return cols_->schema(); }

  /// Cardinality of the hidden relation. Exposed for experiment setup and
  /// reporting only; AIMQ's algorithms do not consult it.
  size_t NumTuples() const { return cols_->NumRows(); }

  /// Executes a precise conjunctive query and returns the ids of matching
  /// rows (ascending). Queries containing 'like' predicates are rejected:
  /// the source only supports the boolean model. Safe to call concurrently:
  /// the per-code posting lists are immutable after construction and probe
  /// accounting is atomic.
  virtual Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const;

  /// ExecuteRows restricted to rows [from_row, NumTuples()): the delta a
  /// probe-cache entry covering the first from_row rows of this source's
  /// lineage has not seen (ProbeCache extends entries with it). The
  /// candidate scan starts at the driving posting list's
  /// lower_bound(from_row); block scans skip the blocks before from_row. Evaluates this source's own snapshot
  /// even when a subclass reroutes ExecuteRows (a shard facade's snapshot is
  /// the global one, so the answer is the same). Accounted like a probe.
  Result<std::vector<uint32_t>> ExecuteRowsFrom(const SelectionQuery& query,
                                                size_t from_row) const;

  /// Executes a precise conjunctive query and returns the matching tuples —
  /// ExecuteRows materialized through the dictionaries.
  virtual Result<std::vector<Tuple>> Execute(const SelectionQuery& query) const;

  /// Materializes row ids (as returned by ExecuteRows) into tuples.
  std::vector<Tuple> Materialize(const std::vector<uint32_t>& rows) const;

  /// Materializes one row id (as returned by ExecuteRows). By value:
  /// sources without a row store — packed snapshots, and facades wrapping a
  /// plain snapshot directly — rebuild the tuple from the dictionaries per
  /// call (value-identical to the row-store tuple: the dictionaries hold
  /// the interned original values).
  Tuple MaterializeRow(uint32_t row) const {
    return data_.NumTuples() != 0 ? data_.tuple(row)
                                  : cols_->MaterializeTuple(row);
  }

  /// The option list a Web form exposes in the drop-down for a categorical
  /// attribute (sorted, distinct, non-null). This is public metadata on real
  /// form interfaces and is what the Data Collector uses to build spanning
  /// queries. Errors for numeric or unknown attributes.
  virtual Result<std::vector<Value>> FormValues(
      const std::string& attribute) const;

  /// The dictionary-encoded snapshot the source evaluates against (probe
  /// caches key on it: ProbeKey::ForQuery).
  const std::shared_ptr<const ColumnarRelation>& columnar() const {
    return cols_;
  }

  /// Probe accounting across all Execute calls.
  const ProbeStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Test/experiment backdoor: direct read access to the hidden relation.
  /// Used only by evaluation harnesses that need ground truth (e.g. to pick
  /// query tuples); never by the AIMQ pipeline itself. Empty for packed
  /// sources (there is no row store to expose — use columnar()).
  const Relation& hidden_relation_for_testing() const { return data_; }

 protected:
  /// Accounts one answered probe in stats(). ExecuteRows overrides that do
  /// not route through the base implementation (scatter/gather facades,
  /// fault-injection adapters) call this so probe accounting — what the
  /// paper's efficiency figures and the serving metrics read — stays
  /// consistent with the base class.
  void AccountProbe(size_t tuples_returned) const {
    ++stats_.queries_issued;
    stats_.tuples_returned += tuples_returned;
  }

  /// Validates \p query the way the base ExecuteRows does: 'like' predicates
  /// and unknown attributes are rejected with the same status text, so a
  /// facade in front of per-shard sources errors identically to the
  /// unsharded source.
  Status ValidateBooleanQuery(const SelectionQuery& query) const;

 private:
  // The source maintains per-attribute value indexes, as any backing RDBMS
  // would; clients cannot observe them except through response times.
  void BuildIndexes();

  std::string name_;
  Relation data_;
  std::shared_ptr<const ColumnarRelation> cols_;
  // postings_[attr][code] -> ascending row ids holding that code.
  std::vector<std::vector<std::vector<uint32_t>>> postings_;
  mutable ProbeStats stats_;
};

}  // namespace aimq

#endif  // AIMQ_WEBDB_WEB_DATABASE_H_
