// ShardedWebDatabase: the scatter/gather probe layer every serving version
// probes through.
//
// The relation is split into N contiguous row ranges (shard_plan.h). With
// N > 1 each shard gets its own columnar snapshot (plain, or packed into
// in-memory blocks under the default storage::BlockStoreOptions), its own
// per-code posting lists, and its own ProbeCache, so N shards scan, index,
// and cache independently — the scale-out unit. With N == 1 ("unsharded")
// the one shard *is* the source: no row copy, and no shard cache, because
// the engine-level shared cache already sits in front of it. The facade is a
// WebDatabase whose ExecuteRowsFrom scatters the probe to every shard the
// requested row range reaches and gathers the per-shard answers by
// offsetting local row ids into the global row space and concatenating in
// shard order. Because ranges are contiguous and disjoint and every shard
// answers ascending local ids, the gathered list is the globally ascending
// row-id vector the source returns: bit-identical answers at any shard
// count.
//
// The AIMQ relaxation algorithm itself is *not* sharded: base-set
// generalization and the progressive FindSimilar descent both branch on
// global emptiness/counts, so running N independent engines would change
// answers. Instead one AimqEngine runs the unmodified Algorithm 1 over the
// facade — the probe/scan layer scales out, the algorithm stays global and
// deterministic. LiveEngine (live/live_engine.h) builds one facade per
// serving version, and each takes over the previous facade's per-shard
// accounting (counters, leg latency, shard cache) by shard index, so the
// shard metrics never restart on a publish; see DESIGN.md §5h.

#ifndef AIMQ_SHARD_SHARDED_ENGINE_H_
#define AIMQ_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "shard/shard_plan.h"
#include "storage/code_block_store.h"
#include "util/histogram.h"
#include "util/trace.h"
#include "webdb/probe_cache.h"
#include "webdb/web_database.h"

namespace aimq {

/// Tunables of the shard layer (the engine keeps its own AimqOptions).
struct ShardedEngineOptions {
  /// Row-range shards. <= 1 is the one-shard plan: the source itself
  /// answers every probe through the facade.
  size_t num_shards = 1;

  /// Store each shard's snapshot packed (bit-packed in-memory blocks under
  /// the default storage::BlockStoreOptions) instead of plain resident
  /// columns. Packed shard copies always build per-code posting lists, so
  /// their probes stay index-assisted. Ignored by the one-shard plan, which
  /// serves the source as it is.
  bool packed_shards = false;

  /// Per-shard ProbeCache capacity in entries (0 disables shard caches;
  /// probes then always scan the shard). The one-shard plan has no shard
  /// cache.
  size_t shard_cache_capacity = 4096;

  /// Group-commit probe coalescing on the engine-level shared ProbeCache:
  /// identical in-flight probes from concurrent sessions park on one scan.
  /// Also makes probe accounting exactly-once per distinct probe key.
  bool coalesce_probes = true;
};

/// Per-shard probe accounting, for shard-labelled service metrics.
struct ShardProbeSnapshot {
  size_t shard = 0;
  uint32_t begin_row = 0;
  uint32_t end_row = 0;
  uint64_t queries_issued = 0;
  uint64_t tuples_returned = 0;
  ProbeCacheStats cache;
  /// Scatter-leg latency distribution of this shard (one record per
  /// ProbeShard call, cache hits included).
  HistogramSnapshot latency;
};

/// \brief Scatter/gather WebDatabase facade over row-range shards.
///
/// Constructed over the source's columnar snapshot, so schema(),
/// MaterializeRow(), and columnar() behave exactly like the source (probe
/// keys, which ProbeKey::ForQuery derives from columnar(), and engine
/// scoring are unchanged); only ExecuteRowsFrom routes differently.
/// ExecuteKeyFrom is the base class's, over that same snapshot.
/// Thread-safe like its base class.
class ShardedWebDatabase : public WebDatabase {
 public:
  /// One shard index's probe accounting. It outlives a facade: the next
  /// serving version's facade shares it, so the shard counters stay
  /// monotone across publishes.
  struct Accounting {
    /// Legs the shard's snapshot answered (shard-cache hits excluded).
    std::atomic<uint64_t> queries_issued{0};
    std::atomic<uint64_t> tuples_returned{0};
    /// Scatter-leg latency (lock-free records from any probing thread).
    LatencyHistogram latency;
    /// Per-shard probe cache; null in a one-shard plan or when disabled.
    /// Keys name the shard snapshot's lineage, so entries of an earlier
    /// version's shard never answer a later one's probes.
    std::unique_ptr<ProbeCache> cache;
  };

  struct Shard {
    ShardRange range;
    // The shard's own snapshot; the source itself in a one-shard plan.
    std::shared_ptr<const WebDatabase> db;
    std::shared_ptr<Accounting> accounting;  // never null
    // Block-cache counters (hits, misses, evictions, decode time) of the
    // packed stores earlier versions of this shard read, frozen when this
    // facade took over their accounting. Each version reads a store of
    // its own, so ShardBlockStats adds these to keep the counters monotone
    // across publishes. Per facade rather than in the shared Accounting:
    // the previous facade keeps reporting its own store's counters
    // unchanged while it still serves.
    storage::BlockCache::Stats earlier_blocks;
  };

  /// Builds the facade over \p source (plain or packed). A one-range plan
  /// serves from \p source itself; with more ranges each shard copies its
  /// rows out of \p source. Shard i takes over \p prev's shard i
  /// accounting when \p prev has that shard.
  static Result<std::unique_ptr<ShardedWebDatabase>> Create(
      std::shared_ptr<const WebDatabase> source,
      const ShardedEngineOptions& options,
      const ShardedWebDatabase* prev = nullptr);

  /// Scatters \p query to every shard whose range ends after \p from_row
  /// and gathers ascending global row ids. A shard the requested rows cover
  /// whole answers a full probe (through its cache, else its ExecuteRows); the
  /// shard holding \p from_row answers the local delta (its
  /// ExecuteRowsFrom). Probe-cache extensions reach it only for keys that
  /// can fail: the facade keeps the base ExecuteKeyFrom, which evaluates a
  /// key's delta rows against the facade's own snapshot (the source's), so
  /// they cost no shard leg.
  Result<std::vector<uint32_t>> ExecuteRowsFrom(
      const SelectionQuery& query, size_t from_row) const override;

  size_t num_shards() const { return shards_.size(); }
  const Shard& shard(size_t i) const { return shards_[i]; }

  /// Per-shard probe + cache accounting (shard-labelled /metrics families).
  std::vector<ShardProbeSnapshot> ShardStats() const;

  /// (shard index, block-store stats) of every packed shard snapshot — a
  /// packed source's own store at index 0 in a one-shard plan; empty when
  /// the shards are plain. The cache's hit, miss, eviction and decode-time
  /// counters include those of the stores the shard's earlier versions
  /// read, so they survive publishes. Feeds the block-cache metric families
  /// and the explain op's blocks-decoded delta.
  std::vector<std::pair<size_t, storage::BlockStoreStats>> ShardBlockStats()
      const;

  /// Span recorder for per-shard scatter-leg spans ("shard_probe",
  /// correlated via TraceRecorder::CurrentRequestId); a one-shard plan
  /// records none. nullptr detaches.
  void SetTraceRecorder(TraceRecorder* recorder) { trace_ = recorder; }

 private:
  ShardedWebDatabase(std::string name,
                     std::shared_ptr<const ColumnarRelation> cols)
      : WebDatabase(std::move(name), std::move(cols)) {}

  // One scatter leg: shard \p s's rows at or after global row \p from_row,
  // as global row ids.
  Result<std::vector<uint32_t>> ProbeShard(size_t s,
                                           const SelectionQuery& query,
                                           size_t from_row) const;

  std::vector<Shard> shards_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace aimq

#endif  // AIMQ_SHARD_SHARDED_ENGINE_H_
