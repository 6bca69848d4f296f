// LiveEngine: RCU-style versioned serving over a growing source.
//
// Everything a query touches — the columnar snapshot, the serving
// WebDatabase, the shard facade, the mined knowledge, and the AimqEngine
// itself — is bundled into one immutable ServingVersion. Queries capture the
// current version once at admission (a single atomic shared_ptr load) and
// use it end-to-end; ingest and knowledge refresh build the *next* version
// off to the side and publish it with a single atomic shared_ptr exchange.
// In-flight queries keep their captured version alive through the shared_ptr
// they hold, so a swap never invalidates anything mid-query, and every
// answer is bit-identical to a from-scratch engine at the query's captured
// (snapshot, knowledge) pair. See DESIGN.md §5i.
//
// Snapshot production is incremental (ColumnarRelation::Extend): only the
// delta rows are interned and hashed into the canonical-row index the
// previous version hands over, and posting lists extend the previous
// version's lists (WebDatabase::ExtendPostingLists). The columns, posting
// lists and knowledge are still copied per publish. Every version's
// snapshot continues one lineage (the packed serving re-encode continues
// the previous serving snapshot's), so the probe cache, *shared* across
// versions, carries its entries forward: a publish evicts nothing, and an
// entry cached at an older version is extended over the new rows on its
// next lookup (ProbeCache).

#ifndef AIMQ_LIVE_LIVE_ENGINE_H_
#define AIMQ_LIVE_LIVE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/knowledge.h"
#include "core/options.h"
#include "shard/sharded_engine.h"
#include "util/histogram.h"
#include "util/trace.h"
#include "webdb/probe_cache.h"
#include "webdb/web_database.h"

namespace aimq {

/// Tunables of the live serving stack.
struct LiveOptions {
  /// Engine options shared by every published version (also the options
  /// knowledge refresh re-mines with).
  AimqOptions engine;
  /// Shard layer configuration, re-applied on every snapshot publish (the
  /// facade re-plans its row ranges over the grown relation). Whether the
  /// serving snapshot is packed is inherited from the initial source's
  /// snapshot, not from shards.packed_shards.
  ShardedEngineOptions shards;
};

/// \brief One immutable published edition of the full serving stack.
///
/// Shared-pointer members are shared across versions where the underlying
/// state did not change (a knowledge-only refresh reuses the snapshot,
/// source, and facade of the version it supersedes).
struct ServingVersion {
  /// Monotonic snapshot version (initial source's version — usually 0 —
  /// before the first publish).
  uint64_t snapshot_version = 0;
  /// Knowledge edition answering queries admitted at this version.
  uint64_t knowledge_version = 0;
  uint64_t num_rows = 0;
  /// Rows added by the publish that created this version (0 for the initial
  /// version and for knowledge-only refreshes).
  uint64_t delta_rows = 0;

  /// The plain "truth" snapshot of all rows at this version.
  std::shared_ptr<const ColumnarRelation> snapshot;
  /// Unsharded serving source over this version's rows (also what
  /// knowledge refresh mines against). For the initial version this aliases
  /// the externally owned source.
  std::shared_ptr<const WebDatabase> source;
  /// Scatter/gather facade; nullptr when unsharded (or degraded).
  std::shared_ptr<ShardedWebDatabase> facade;
  std::shared_ptr<const KnowledgeVersion> knowledge;
  /// The engine queries admitted at this version run on. unique_ptr's
  /// shallow constness keeps Answer() callable through a const
  /// ServingVersion.
  std::unique_ptr<AimqEngine> engine;
  /// OK, or why this version degraded to unsharded operation.
  Status shard_build_status = Status::OK();

  /// The source the engine probes (facade when sharded).
  const WebDatabase* probe_source() const {
    return facade != nullptr ? static_cast<const WebDatabase*>(facade.get())
                             : source.get();
  }
};

/// Point-in-time accounting of the live stack (metrics/stats surfaces).
struct LiveIngestStats {
  uint64_t snapshot_version = 0;
  uint64_t knowledge_version = 0;
  uint64_t rows_total = 0;
  /// Rows accepted by Ingest since construction (published or pending).
  uint64_t ingested_rows_total = 0;
  /// Rows buffered but not yet published into a snapshot.
  uint64_t pending_rows = 0;
  /// Published rows the current knowledge edition has not seen.
  uint64_t knowledge_staleness_rows = 0;
  uint64_t publishes_total = 0;
  uint64_t refreshes_total = 0;
  /// Delta size of the most recent snapshot publish.
  uint64_t last_delta_rows = 0;
  /// Wall-clock distribution of PublishSnapshot calls (build + swap).
  HistogramSnapshot publish_latency;
};

/// \brief Versioned live serving stack: ingest, publish, refresh, query.
///
/// Thread-safety: Acquire() is wait-free and safe from any thread, including
/// concurrently with publishes. Ingest() only buffers (brief mutex).
/// PublishSnapshot() and RefreshKnowledge() serialize against each other on
/// a publisher mutex but never block queries. Answer on a captured version's
/// engine is as thread-safe as AimqEngine itself.
class LiveEngine {
 public:
  /// Builds the initial version over \p initial_source (not owned; must
  /// outlive the LiveEngine — later versions own their sources). \p
  /// knowledge is the initially mined edition (version 1). Packed serving
  /// mode is inherited from initial_source->columnar()->packed().
  static Result<std::unique_ptr<LiveEngine>> Create(
      const WebDatabase* initial_source, MinedKnowledge knowledge,
      LiveOptions options);

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// The current published version (single atomic shared_ptr load). The
  /// caller's shared_ptr keeps every part of the version alive across any
  /// number of subsequent publishes.
  std::shared_ptr<const ServingVersion> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Validates \p rows against the schema (arity + per-attribute type,
  /// nulls allowed) and buffers them for the next publish. All-or-nothing:
  /// on error no row is buffered. Does not publish.
  Status Ingest(std::vector<Tuple> rows);

  /// Publishes a new snapshot version containing every buffered row:
  /// extends the truth snapshot incrementally, rebuilds the serving stack
  /// (source, postings, facade with re-planned ranges, engine) and swaps it
  /// in atomically. Probe-cache entries stay and are extended on lookup.
  /// Publishes even when no rows are pending (version still advances).
  /// Returns the new snapshot version.
  Result<uint64_t> PublishSnapshot();

  /// Re-mines knowledge against the current version's rows and publishes a
  /// version that shares the snapshot/source/facade but carries the new
  /// knowledge edition (and a fresh engine). Returns the new knowledge
  /// version.
  Result<uint64_t> RefreshKnowledge();

  /// The probe cache shared across all versions (null when
  /// options.engine.probe_cache_capacity == 0).
  const std::shared_ptr<ProbeCache>& probe_cache() const { return cache_; }

  /// Wired into every subsequently published version's engine and facade
  /// (and the current one's). Not thread-safe against in-flight queries.
  void SetTraceRecorder(TraceRecorder* recorder);

  const Schema& schema() const { return schema_; }

  LiveIngestStats Stats() const;

 private:
  LiveEngine() = default;

  // Builds the engine of a new version: knowledge copy, shard ranker,
  // shared probe cache, trace recorder.
  std::unique_ptr<AimqEngine> BuildEngine(const WebDatabase* probe_source,
                                          const ShardedWebDatabase* facade,
                                          const KnowledgeVersion& kv) const;

  std::string name_;
  Schema schema_;
  LiveOptions options_;
  bool packed_serving_ = false;
  std::shared_ptr<ProbeCache> cache_;  // shared across versions; may be null
  TraceRecorder* trace_ = nullptr;

  std::atomic<std::shared_ptr<const ServingVersion>> current_;

  // Publisher state: guarded by publish_mu_ (one publisher at a time).
  mutable std::mutex publish_mu_;
  std::shared_ptr<const ColumnarRelation> truth_;  // plain after 1st publish

  // Ingest buffer: guarded by ingest_mu_ (never held across a build).
  mutable std::mutex ingest_mu_;
  std::vector<Tuple> pending_;
  uint64_t ingested_rows_total_ = 0;  // guarded by ingest_mu_

  std::atomic<uint64_t> publishes_total_{0};
  std::atomic<uint64_t> refreshes_total_{0};
  LatencyHistogram publish_latency_;
};

}  // namespace aimq

#endif  // AIMQ_LIVE_LIVE_ENGINE_H_
