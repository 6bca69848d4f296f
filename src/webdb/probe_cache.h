// ProbeCache: a shared, thread-safe memoization layer in front of
// WebDatabase::ExecuteRows.
//
// Algorithm 1 turns every base-set tuple into a fully-bound selection query
// and relaxes it attribute-by-attribute, so distinct base tuples frequently
// emit the *same* relaxed query (a deep relaxation of any Camry keeps only
// Model = Camry). Against an autonomous source each duplicate probe costs
// real network latency; the cache folds them into one physical probe. Keys
// are integer ProbeKeys (src/webdb/probe_key.h): predicates pre-resolved to
// dictionary codes and sorted, so syntactically different but equivalent
// conjunctions share an entry. Entries are shared, immutable row-id lists —
// an answerset of 10k tuples caches as 40 kB of integers, not 10k
// materialized Tuples — and a hit hands out the entry's handle: no copy, and
// the rows stay valid for the holder after the entry is evicted.
//
// Entries outlive snapshot publishes. Keys name a snapshot *lineage*, not a
// snapshot (probe_key.h), and each entry records how many source rows its
// answer covers. Within a lineage a smaller snapshot is a row prefix of a
// larger one, so a lookup against a source with N rows finds one of:
//   - covered == N: a plain hit;
//   - covered < N: the source evaluates only rows [covered, N)
//     (WebDatabase::ExecuteRowsFrom), the delta's matches are appended and
//     the entry is stored at N — re-stamped without a copy when the delta
//     matches nothing. Counted as a hit and in `extended`;
//   - covered > N (a reader still on an older snapshot): the rows below N
//     are served and the entry is left alone.
// A failed delta is returned to the caller and never cached; the entry
// keeps its old coverage.
//
// The cache is safe for concurrent Execute() calls — the engine's parallel
// relaxation fan-out and concurrent query sessions share one instance. The
// mutex guards only map bookkeeping (a hash-table probe on the key's
// precomputed hash, a recency splice, a refcount bump), never the source
// probe, key construction, or row allocation: two threads that miss the
// same key simultaneously may both probe the source (the second insert
// overwrites with identical data), which trades a rare duplicate probe for
// never serializing probe latency.
//
// EnableCoalescing(true) switches that trade around with a group-commit
// style in-flight table: the first thread to miss a key becomes the probe's
// *leader* and executes it; concurrent threads that miss the same key park
// on the leader's flight and are handed the leader's row list when it
// lands — one physical probe serves N waiting sessions. Flights are keyed
// by (key, source rows), and an extension is a flight like a miss, so a
// follower only ever parks on a leader probing the same row count. Parked
// followers report as cache hits (their probe was served without touching
// the source), and are additionally counted in `coalesced`. With
// coalescing on, each distinct (key, rows) is computed exactly once per
// residency (never twice by a race), which also makes probe accounting
// deterministic under concurrency.

#ifndef AIMQ_WEBDB_PROBE_CACHE_H_
#define AIMQ_WEBDB_PROBE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "query/selection_query.h"
#include "util/lru.h"
#include "webdb/probe_key.h"
#include "webdb/web_database.h"

namespace aimq {

/// Immutable row-id list shared by a cache entry and every reader of it.
using SharedRows = std::shared_ptr<const std::vector<uint32_t>>;

/// Snapshot of cache accounting (all counters since construction or the
/// last Clear()).
struct ProbeCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Lookups served by parking on a probe already in flight (counted in
  /// `hits` as well): one source scan answered this many extra sessions.
  uint64_t coalesced = 0;
  /// Lookups that found an entry covering fewer rows than the source and
  /// extended it over the delta rows (counted in `hits` as well).
  uint64_t extended = 0;
  /// Always 0: entries are carried across snapshot publishes, never aged
  /// out by version. Kept because reports that predate carry-forward (the
  /// serving benchmark's webdb.version_evictions) still read it.
  uint64_t version_evictions = 0;

  /// Fraction of lookups spared a source probe (0 when no lookups yet).
  /// The serving layer reports this per metrics snapshot.
  double HitRate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// \brief Thread-safe LRU cache of shared row lists over ProbeKeys.
class ProbeCache {
 public:
  /// \p capacity is the number of distinct queries retained; 0 makes the
  /// cache a pass-through (every Execute probes the source).
  explicit ProbeCache(size_t capacity)
      : capacity_(capacity), cache_(capacity) {}

  ProbeCache(const ProbeCache&) = delete;
  ProbeCache& operator=(const ProbeCache&) = delete;

  /// Serves \p query's row ids from the cache (extending an entry that
  /// covers fewer rows than \p db), or forwards the probe to \p db and
  /// caches the answer. \p hit (optional) reports whether a full source
  /// probe was spared. Errors are never cached.
  Result<SharedRows> ExecuteRows(const WebDatabase& db,
                                 const SelectionQuery& query,
                                 bool* hit = nullptr) {
    return ExecuteRows(
        db, ProbeKey::ForQuery(*db.columnar(), query),
        [&query]() -> const SelectionQuery& { return query; }, hit);
  }

  /// ExecuteRows for a caller that already holds the probe's \p key (which
  /// must equal ProbeKey::ForQuery(*db.columnar(), make_query())):
  /// \p make_query() is called only when the source must be probed.
  template <typename MakeQuery>
  Result<SharedRows> ExecuteRows(const WebDatabase& db, const ProbeKey& key,
                                 MakeQuery&& make_query, bool* hit = nullptr);

  /// ExecuteRows materialized through the source's dictionaries.
  Result<std::vector<Tuple>> Execute(const WebDatabase& db,
                                     const SelectionQuery& query,
                                     bool* hit = nullptr);

  /// True iff \p query (against \p db) has an entry, whatever row count it
  /// covers (does not refresh recency; diagnostics/tests).
  bool Contains(const WebDatabase& db, const SelectionQuery& query) const;

  /// Drops all entries and resets the counters. Probes currently in flight
  /// are unaffected (their waiters still get the leader's answer).
  void Clear();

  /// Turns the in-flight coalescing table on or off (off by default, which
  /// preserves the historical race-and-overwrite behavior). Flip it before
  /// serving traffic; in-flight probes started under the previous setting
  /// complete under it.
  void EnableCoalescing(bool enabled);
  bool coalescing_enabled() const;

  /// Followers currently parked on in-flight probes (diagnostics/tests: a
  /// coalescing test can wait for all followers to arrive before releasing
  /// a blocked leader).
  size_t InFlightWaiters() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;
  ProbeCacheStats stats() const;

 private:
  // One probe being executed by its leader; followers park on cv until done.
  struct Flight {
    std::condition_variable cv;
    bool done = false;
    Status status = Status::OK();
    SharedRows rows;
    size_t waiters = 0;
  };

  // A flight's identity: the probe and the source row count it computes.
  struct FlightKey {
    ProbeKey key;
    size_t rows = 0;
    bool operator==(const FlightKey& other) const {
      return rows == other.rows && key == other.key;
    }
  };
  struct FlightKeyHash {
    size_t operator()(const FlightKey& f) const noexcept {
      return f.key.hash() ^ (f.rows * 0x9e3779b97f4a7c15ull);
    }
  };

  // Cached answer: ascending row ids over the first `covered` source rows.
  struct Entry {
    SharedRows rows;
    size_t covered = 0;
  };

  // Outcome of the locked lookup: served (a hit, or a parked follower's
  // answer); a resident entry over a different row count (`cached`, with
  // its `covered` rows) that the caller trims or extends; or a miss the
  // caller must probe. An extension or miss leads `flight` when coalescing
  // is on.
  struct Claim {
    std::optional<Result<SharedRows>> served;
    std::shared_ptr<Flight> flight;
    SharedRows cached;
    size_t covered = 0;
  };

  Claim Acquire(const ProbeKey& key, size_t rows, bool* hit);
  // \p cached followed by \p delta's rows; \p cached itself (no copy) when
  // the delta is empty.
  static Result<SharedRows> AppendRows(const SharedRows& cached,
                                       Result<std::vector<uint32_t>> delta);
  // The rows of \p cached below \p rows; \p cached itself (no copy) when
  // all of them are.
  static SharedRows RowsBelow(const SharedRows& cached, size_t rows);
  // Publishes an extension's or a miss's answer over \p rows source rows:
  // caches it (unless it failed, or a resident entry already covers more
  // rows) and hands it to the flight's followers.
  Result<SharedRows> Fill(const ProbeKey& key, size_t rows,
                          const std::shared_ptr<Flight>& flight,
                          Result<SharedRows> answer);

  const size_t capacity_;  // immutable; readable without mu_
  mutable std::mutex mu_;
  LruCache<ProbeKey, Entry, ProbeKeyHash> cache_;  // guarded by mu_
  ProbeCacheStats stats_;                          // guarded by mu_
  bool coalesce_ = false;                          // guarded by mu_
  // In-flight probes by key; entries are shared so a flight outlives its map
  // slot while followers still hold it. Guarded by mu_; followers wait on
  // the flight's cv with mu_ held (released while waiting).
  std::unordered_map<FlightKey, std::shared_ptr<Flight>, FlightKeyHash>
      flights_;
};

/// Wraps a probe's rows as a shared list: one allocation, rows moved.
inline Result<SharedRows> ShareRows(Result<std::vector<uint32_t>> rows) {
  if (!rows.ok()) return rows.status();
  return SharedRows(
      std::make_shared<const std::vector<uint32_t>>(rows.TakeValue()));
}

template <typename MakeQuery>
Result<SharedRows> ProbeCache::ExecuteRows(const WebDatabase& db,
                                           const ProbeKey& key,
                                           MakeQuery&& make_query, bool* hit) {
  if (hit != nullptr) *hit = false;
  if (capacity_ == 0) return ShareRows(db.ExecuteRows(make_query()));
  const size_t rows = db.NumTuples();
  Claim claim = Acquire(key, rows, hit);
  if (claim.served.has_value()) return std::move(*claim.served);
  // Trim, extend or probe outside the lock: source latency must never
  // serialize workers.
  if (claim.cached == nullptr) {
    return Fill(key, rows, claim.flight,
                ShareRows(db.ExecuteRows(make_query())));
  }
  if (claim.covered > rows) return RowsBelow(claim.cached, rows);
  return Fill(key, rows, claim.flight,
              AppendRows(claim.cached,
                         db.ExecuteRowsFrom(make_query(), claim.covered)));
}

}  // namespace aimq

#endif  // AIMQ_WEBDB_PROBE_CACHE_H_
