// LiveEngine: RCU-style versioned serving over a growing source.
//
// Everything a query touches — the serving WebDatabase and its columnar
// snapshot, the shard facade, the mined knowledge, and the AimqEngine
// itself — is bundled into one immutable ServingVersion. Queries capture the
// current version once at admission (a shared_ptr copy under a mutex that
// is held for nothing else) and use it end-to-end; ingest and knowledge
// refresh build the *next* version off to the side and publish it with a
// pointer swap under the same mutex.
// In-flight queries keep their captured version alive through the shared_ptr
// they hold, so a swap never invalidates anything mid-query, and every
// answer is bit-identical to a from-scratch engine at the query's captured
// (snapshot, knowledge) pair. See DESIGN.md §5i.
//
// Every version's engine probes through the version's shard facade, whose
// plan is re-cut from the version's source on each publish; unsharded is
// the one-shard plan, whose shard is the source itself (DESIGN.md §5h).
// Each facade takes over its predecessor's per-shard accounting, so the
// shard metrics are cumulative across versions.
//
// One snapshot per version: a publish extends the previous version's
// serving snapshot (ColumnarRelation::Extend) in its own storage form —
// plain stays plain, packed stays packed — interning only the delta rows.
// A version keeps posting lists iff its predecessor had them, extending
// them over the delta rows (WebDatabase::ExtendPostingLists). The columns
// (re-packed per block when packed), posting lists and knowledge are still
// copied per publish. Every version's snapshot continues one lineage, so
// the probe cache, *shared* across versions, carries its entries forward:
// a publish evicts nothing, and an entry cached at an older version is
// extended over the new rows on its next lookup (ProbeCache).

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
  /// serving snapshot is packed is the initial source's snapshot's form,
  /// not shards.packed_shards.
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

  /// The serving source over this version's rows: its columnar() is the
  /// version's one snapshot. It is what the facade's shards are cut from
  /// (in a one-shard plan, the shard itself), what the next publish
  /// extends, and what knowledge refresh mines against. For the initial
  /// version this aliases the externally owned source.
  std::shared_ptr<const WebDatabase> source;
  /// The scatter/gather facade the engine probes through and ranks with
  /// (never null; one shard when unsharded).
  std::shared_ptr<ShardedWebDatabase> facade;
  std::shared_ptr<const KnowledgeVersion> knowledge;
  /// The engine queries admitted at this version run on. unique_ptr's
  /// shallow constness keeps Answer() callable through a const
  /// ServingVersion.
  std::unique_ptr<AimqEngine> engine;
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
/// Thread-safety: Acquire() is safe from any thread, including concurrently
/// with publishes; it only copies a pointer under a mutex that is never held
/// across work. Ingest() only buffers (brief mutex).
/// PublishSnapshot() and RefreshKnowledge() serialize against each other on
/// a publisher mutex but never block queries. Answer on a captured version's
/// engine is as thread-safe as AimqEngine itself.
class LiveEngine {
 public:
  /// Builds the initial version over \p initial_source (not owned; must
  /// outlive the LiveEngine — later versions own their sources). \p
  /// knowledge is the initially mined edition (version 1). Every version's
  /// snapshot keeps initial_source->columnar()'s storage form.
  static Result<std::unique_ptr<LiveEngine>> Create(
      const WebDatabase* initial_source, MinedKnowledge knowledge,
      LiveOptions options);

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// The current published version (a shared_ptr copy under current_mu_).
  /// The caller's shared_ptr keeps every part of the version alive across
  /// any number of subsequent publishes.
  std::shared_ptr<const ServingVersion> Acquire() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Validates \p rows against the schema (arity + per-attribute type,
  /// nulls allowed) and buffers them for the next publish. All-or-nothing:
  /// on error no row is buffered. Does not publish.
  Status Ingest(std::vector<Tuple> rows);

  /// Publishes a new snapshot version containing every buffered row:
  /// extends the serving snapshot incrementally, rebuilds the serving stack
  /// (source, postings, facade with re-planned ranges, engine) and swaps it
  /// in atomically. Probe-cache entries stay and are extended on lookup.
  /// Publishes even when no rows are pending (version still advances).
  /// Returns the new snapshot version.
  Result<uint64_t> PublishSnapshot();

  /// Re-mines knowledge against the current version's rows and publishes a
  /// version that shares the snapshot/source/facade but carries the new
  /// knowledge edition (and a fresh engine). Holds the publisher mutex
  /// through mining, so concurrent PublishSnapshot calls wait for it.
  /// Returns the new knowledge version.
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

  // Builds a version's facade over \p source with the configured plan,
  // taking over \p prev's per-shard accounting (null for the first).
  Result<std::shared_ptr<ShardedWebDatabase>> BuildFacade(
      std::shared_ptr<const WebDatabase> source,
      const ShardedWebDatabase* prev) const;

  // Builds the engine of a new version over \p facade: knowledge copy,
  // shard ranker, shared probe cache, trace recorder.
  std::unique_ptr<AimqEngine> BuildEngine(const ShardedWebDatabase* facade,
                                          const KnowledgeVersion& kv) const;

  // Makes \p next the current version. The replaced version is released
  // after current_mu_ drops, so its teardown never blocks Acquire().
  void Install(std::shared_ptr<const ServingVersion> next);

  std::string name_;
  Schema schema_;
  LiveOptions options_;
  std::shared_ptr<ProbeCache> cache_;  // shared across versions; may be null
  TraceRecorder* trace_ = nullptr;

  // The version slot. current_mu_ is held only to copy or swap the pointer.
  mutable std::mutex current_mu_;
  std::shared_ptr<const ServingVersion> current_;  // guarded by current_mu_

  // Serializes publishers (PublishSnapshot, RefreshKnowledge).
  mutable std::mutex publish_mu_;

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
