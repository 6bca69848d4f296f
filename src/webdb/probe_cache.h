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
//   - covered < N (an extension): the source evaluates only rows
//     [covered, N), straight from the key (WebDatabase::ExecuteKeyFrom: no
//     SelectionQuery, no validation, no compile), the delta's matches are
//     appended and the entry is stored at N — re-stamped without a copy
//     when the delta matches nothing. Counted as a hit and in `extended`;
//   - covered > N (a reader still on an older snapshot): the rows below N
//     are served and the entry is left alone.
// The fallback rule is one predicate, ProbeKey::CanError: an extension of a
// key holding a term whose evaluation can fail (an unknown attribute, a
// 'like', a range that is not a number bounding a numeric attribute) builds
// its query with make_query() and evaluates the delta through
// WebDatabase::ExecuteRowsFrom; CanError's comment says why. A failed delta
// is returned to the caller and never cached; the entry keeps its old
// coverage.
//
// The cache is safe for concurrent Execute() calls — the engine's parallel
// relaxation fan-out and concurrent query sessions share one instance. It is
// split into independent stripes, chosen by the key's precomputed hash; each
// stripe has its own mutex, its own exact-LRU map, its in-flight table and
// its counters, so a hit, miss, extension or coalesced wait locks only the
// key's stripe and hits on different stripes never contend. The stripe count
// follows from the capacity alone: the largest power of two up to
// kMaxStripes that leaves every stripe at least kMinStripeEntries entries.
// Capacity is split evenly, and eviction is exact LRU within a stripe, so a
// cache below 2 * kMinStripeEntries entries is one stripe: a single exact
// LRU. Whole-cache reads (stats(), size(), InFlightWaiters()) and Clear()
// visit the stripes one at a time.
//
// Entry layout. An entry is one allocation (Node): the stripe's LRU links,
// the link to the next node of its hash bucket, the key's precomputed hash,
// the answer's coverage, the row-list handle, and then the key's words at
// their exact length (an average CarDB relaxation key is about 10 words, so
// nothing is padded out to ProbeKey's 16 inline words). A stripe's table is
// those nodes plus one array of bucket heads, grown by doubling while the
// stripe fills. A hit reads the bucket head, the node (hash, length, words,
// rows handle in one or two cache lines), splices the node to the front of
// the LRU list and bumps the rows' refcount: no separate hash-map node, no
// separate list node, no copy of the key.
//
// A stripe's mutex guards only table bookkeeping (a bucket walk on the
// key's precomputed hash, a recency splice, a refcount bump), never the
// source probe, key construction, or row allocation: two threads that miss
// the same key simultaneously may both probe the source (the second insert
// overwrites with identical data), which trades a rare duplicate probe for
// never serializing probe latency.
//
// EnableCoalescing(true) switches that trade around with a group-commit
// style in-flight table: the first thread to miss a key becomes the probe's
// *leader* and executes it; concurrent threads that miss the same key park
// on the leader's flight and are handed the leader's row list when it
// lands — one physical probe serves N waiting sessions. Flights are keyed
// by (key, source rows), and an extension is a flight like a miss, so a
// follower only ever parks on a leader probing the same row count. A key's
// flights live in the key's stripe. Parked followers report as cache hits
// (their probe was served without touching the source), and are
// additionally counted in `coalesced`. With coalescing on, each distinct
// (key, rows) is computed exactly once per residency (never twice by a
// race), which also makes probe accounting deterministic under concurrency.

#ifndef AIMQ_WEBDB_PROBE_CACHE_H_
#define AIMQ_WEBDB_PROBE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "query/selection_query.h"
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
  explicit ProbeCache(size_t capacity);

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
  /// \p make_query() is called only on a miss, or on an extension of a key
  /// that can fail (ProbeKey::CanError).
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
  /// Sum of every stripe's counters; lookups == hits + misses holds.
  ProbeCacheStats stats() const;

  /// The stripe rule (see the file comment): at most kMaxStripes stripes,
  /// each of at least kMinStripeEntries entries.
  static constexpr size_t kMaxStripes = 16;
  static constexpr size_t kMinStripeEntries = 4096;
  /// Number of stripes a cache of \p capacity entries is split into.
  static size_t StripeCount(size_t capacity);

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

  // One cached answer, in a single allocation: ascending row ids over the
  // first `covered` source rows, the table's links, and the key's words,
  // which follow the node in memory (num_words of them).
  struct Node {
    Node* newer = nullptr;  // LRU neighbors; the table's head is the newest
    Node* older = nullptr;
    Node* chain = nullptr;  // next node of the same bucket
    uint64_t hash = 0;      // the key's precomputed hash
    SharedRows rows;
    uint32_t covered = 0;  // row ids are 32-bit, so row counts fit
    uint32_t num_words = 0;

    const uint64_t* words() const {
      return reinterpret_cast<const uint64_t*>(this + 1);
    }
    bool Matches(const ProbeKey& key) const;
  };

  // A stripe's entries: an exact LRU list and chained hash buckets, both
  // threaded through the nodes. Not thread-safe; the stripe's mutex guards
  // it.
  class Table {
   public:
    Table() = default;
    ~Table() { Clear(); }
    Table(const Table&) = delete;
    Table& operator=(const Table&) = delete;

    void set_capacity(size_t capacity) { capacity_ = capacity; }
    size_t size() const { return size_; }

    // The key's node, or nullptr. Get refreshes its recency; Peek does not.
    Node* Get(const ProbeKey& key);
    Node* Peek(const ProbeKey& key) const;
    // Stores \p rows over \p covered source rows under \p key unless a
    // resident entry already covers as many rows; a store refreshes
    // recency and evicts the least recently used entries past capacity.
    // Returns the number evicted.
    uint64_t Store(const ProbeKey& key, const SharedRows& rows,
                   size_t covered);
    // Frees every node.
    void Clear();

   private:
    void Unlink(Node* node);        // from the LRU list
    void PushNewest(Node* node);    // onto the LRU list's head
    void EvictOldest();             // unlinks from both and frees
    void Grow();                    // doubles the buckets, rehashing

    size_t capacity_ = 0;
    size_t size_ = 0;
    Node* newest_ = nullptr;
    Node* oldest_ = nullptr;
    std::vector<Node*> buckets_;  // a power-of-two count, or empty
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

  // One independent slice of the cache. Aligned so that neighboring
  // stripes' mutexes and counters never share a cache line.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    Table table;            // guarded by mu
    ProbeCacheStats stats;  // guarded by mu
    // In-flight probes of this stripe's keys; entries are shared so a
    // flight outlives its map slot while followers still hold it. Guarded
    // by mu; followers wait on the flight's cv with mu held (released
    // while waiting).
    std::unordered_map<FlightKey, std::shared_ptr<Flight>, FlightKeyHash>
        flights;
  };

  // The key's stripe, from the high half of its precomputed hash.
  size_t StripeIndex(const ProbeKey& key) const {
    return (static_cast<uint64_t>(key.hash()) >> 32) & (stripes_.size() - 1);
  }

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

  const size_t capacity_;  // immutable
  std::atomic<bool> coalesce_{false};
  std::vector<Stripe> stripes_;  // a power-of-two count, fixed at birth
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
  // An extension: the delta rows are evaluated straight from the key unless
  // one of its terms can fail (the fallback rule, ProbeKey::CanError).
  Result<std::vector<uint32_t>> delta =
      key.CanError(db.schema())
          ? db.ExecuteRowsFrom(make_query(), claim.covered)
          : db.ExecuteKeyFrom(key, claim.covered);
  return Fill(key, rows, claim.flight,
              AppendRows(claim.cached, std::move(delta)));
}

}  // namespace aimq

#endif  // AIMQ_WEBDB_PROBE_CACHE_H_
