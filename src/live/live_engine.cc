#include "live/live_engine.h"

#include <iterator>
#include <utility>

#include "util/stopwatch.h"

namespace aimq {
Result<std::unique_ptr<LiveEngine>> LiveEngine::Create(
    const WebDatabase* initial_source, MinedKnowledge knowledge,
    LiveOptions options) {
  std::unique_ptr<LiveEngine> live(new LiveEngine());
  live->name_ = initial_source->name();
  live->schema_ = initial_source->schema();
  live->options_ = std::move(options);
  live->packed_serving_ = initial_source->columnar()->packed();
  live->truth_ = initial_source->columnar();
  if (live->options_.engine.probe_cache_capacity > 0) {
    live->cache_ = std::make_shared<ProbeCache>(
        live->options_.engine.probe_cache_capacity);
    live->cache_->EnableCoalescing(live->options_.shards.coalesce_probes);
  }

  auto v0 = std::make_shared<ServingVersion>();
  v0->snapshot_version = live->truth_->snapshot_version();
  v0->num_rows = live->truth_->NumRows();
  // The initial source stays externally owned: alias it through a no-op
  // deleter so the version layout is uniform without transferring
  // ownership (and with zero behavior change when ingest is never used).
  v0->source = std::shared_ptr<const WebDatabase>(initial_source,
                                                  [](const WebDatabase*) {});
  if (live->options_.shards.num_shards > 1) {
    Result<std::unique_ptr<ShardedWebDatabase>> facade =
        ShardedWebDatabase::Create(*initial_source, live->options_.shards);
    if (facade.ok()) {
      v0->facade = std::move(*facade);
    } else {
      // Same degradation contract as ShardedEngine: serve unsharded and
      // surface why, rather than refuse to start.
      v0->shard_build_status = facade.status();
    }
  }
  v0->knowledge = std::make_shared<const KnowledgeVersion>(KnowledgeVersion{
      /*version=*/1, v0->snapshot_version, v0->num_rows,
      std::move(knowledge)});
  v0->knowledge_version = v0->knowledge->version;
  v0->engine =
      live->BuildEngine(v0->probe_source(), v0->facade.get(), *v0->knowledge);
  live->current_.store(std::shared_ptr<const ServingVersion>(std::move(v0)),
                       std::memory_order_release);
  return live;
}

std::unique_ptr<AimqEngine> LiveEngine::BuildEngine(
    const WebDatabase* probe_source, const ShardedWebDatabase* facade,
    const KnowledgeVersion& kv) const {
  // Each version gets its own engine (fresh answer cache: cached answers
  // are version-specific) over a *copy* of the knowledge edition.
  auto engine = std::make_unique<AimqEngine>(probe_source, kv.knowledge,
                                             options_.engine);
  if (facade != nullptr) engine->SetShardRanker(facade);
  // All versions share one probe cache; entries carry forward across
  // publishes, extended over each version's new rows on lookup (nullptr =
  // configured pass-through).
  engine->SetProbeCache(cache_);
  if (trace_ != nullptr) engine->SetTraceRecorder(trace_);
  return engine;
}

Status LiveEngine::Ingest(std::vector<Tuple> rows) {
  // All-or-nothing: a bad row rejects the whole batch before anything is
  // buffered.
  for (const Tuple& t : rows) {
    AIMQ_RETURN_NOT_OK(ValidateTuple(schema_, t, "ingest tuple"));
  }
  std::lock_guard<std::mutex> lock(ingest_mu_);
  ingested_rows_total_ += rows.size();
  pending_.insert(pending_.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  return Status::OK();
}

Result<uint64_t> LiveEngine::PublishSnapshot() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  Stopwatch timer;
  std::vector<Tuple> delta;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    delta.swap(pending_);
  }
  // On any build failure, nothing has been committed yet: put the rows back
  // (at the front, preserving ingest order) for a later publish to retry.
  const auto restore = [&]() {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    pending_.insert(pending_.begin(), std::make_move_iterator(delta.begin()),
                    std::make_move_iterator(delta.end()));
  };

  const std::shared_ptr<const ServingVersion> cur = Acquire();
  const uint64_t new_version = cur->snapshot_version + 1;

  // Packed serving re-encodes the extended rows into a packed snapshot
  // (bit-identical codes: ColumnarBuilder interns in the same row-major
  // order) that continues the previous serving snapshot's lineage, so
  // probe-cache entries carry over. The builder claims that lineage before
  // the truth snapshot's Extend can: at the first publish of a packed
  // source the two bases are one snapshot.
  std::unique_ptr<ColumnarBuilder> builder;
  if (packed_serving_) {
    ColumnarBuilder::Options bopts;
    bopts.store = options_.shards.store;
    bopts.snapshot_version = new_version;
    bopts.lineage_base = cur->source->columnar().get();
    Result<std::unique_ptr<ColumnarBuilder>> created =
        ColumnarBuilder::Create(schema_, std::move(bopts));
    if (!created.ok()) {
      restore();
      return created.status();
    }
    builder = std::move(*created);
  }

  Result<std::shared_ptr<const ColumnarRelation>> extended =
      ColumnarRelation::Extend(*truth_, delta, new_version);
  if (!extended.ok()) {
    restore();
    return extended.status();
  }
  std::shared_ptr<const ColumnarRelation> truth = std::move(*extended);

  // The serving snapshot: the truth snapshot itself, or its packed
  // re-encode.
  std::shared_ptr<const ColumnarRelation> serving = truth;
  if (builder != nullptr) {
    for (size_t row = 0; row < truth->NumRows(); ++row) {
      Status s = builder->AppendRow(truth->MaterializeTuple(row));
      if (!s.ok()) {
        restore();
        return s;
      }
    }
    Result<std::shared_ptr<const ColumnarRelation>> packed = builder->Finish();
    if (!packed.ok()) {
      restore();
      return packed.status();
    }
    serving = std::move(*packed);
  }

  auto src = std::make_shared<WebDatabase>(name_, serving);
  if (!packed_serving_) {
    // Plain serving keeps index-assisted probes: extend the previous
    // version's posting lists with the delta rows only.
    src->ExtendPostingLists(*cur->source);
  }

  std::shared_ptr<ShardedWebDatabase> facade;
  Status shard_status = Status::OK();
  if (options_.shards.num_shards > 1) {
    // Re-plan row ranges over the grown relation and swap the shard set
    // generation-at-a-time: the old facade keeps serving its version's
    // queries until the last one drains.
    Result<std::unique_ptr<ShardedWebDatabase>> built =
        ShardedWebDatabase::Create(*src, options_.shards);
    if (built.ok()) {
      facade = std::move(*built);
      if (trace_ != nullptr) facade->SetTraceRecorder(trace_);
    } else {
      shard_status = built.status();
    }
  }

  auto next = std::make_shared<ServingVersion>();
  next->snapshot_version = new_version;
  next->knowledge_version = cur->knowledge->version;
  next->num_rows = truth->NumRows();
  next->delta_rows = delta.size();
  next->snapshot = truth;
  next->source = src;
  next->facade = facade;
  next->knowledge = cur->knowledge;
  next->shard_build_status = shard_status;
  next->engine =
      BuildEngine(next->probe_source(), facade.get(), *next->knowledge);

  truth_ = std::move(truth);
  current_.store(std::shared_ptr<const ServingVersion>(std::move(next)),
                 std::memory_order_release);
  publishes_total_.fetch_add(1, std::memory_order_relaxed);
  publish_latency_.Record(timer.ElapsedSeconds());
  return new_version;
}

Result<uint64_t> LiveEngine::RefreshKnowledge() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const std::shared_ptr<const ServingVersion> cur = Acquire();
  // Mine against the unsharded serving source of the current version; rows
  // published while mining runs simply raise the next edition's staleness.
  AIMQ_ASSIGN_OR_RETURN(MinedKnowledge mined,
                        BuildKnowledge(*cur->source, options_.engine));
  const uint64_t new_kv = cur->knowledge->version + 1;
  auto kv = std::make_shared<const KnowledgeVersion>(KnowledgeVersion{
      new_kv, cur->snapshot_version, cur->num_rows, std::move(mined)});

  auto next = std::make_shared<ServingVersion>();
  next->snapshot_version = cur->snapshot_version;
  next->knowledge_version = new_kv;
  next->num_rows = cur->num_rows;
  next->delta_rows = 0;
  next->snapshot = cur->snapshot;
  next->source = cur->source;
  next->facade = cur->facade;
  next->knowledge = std::move(kv);
  next->shard_build_status = cur->shard_build_status;
  next->engine =
      BuildEngine(next->probe_source(), next->facade.get(), *next->knowledge);

  current_.store(std::shared_ptr<const ServingVersion>(std::move(next)),
                 std::memory_order_release);
  refreshes_total_.fetch_add(1, std::memory_order_relaxed);
  return new_kv;
}

void LiveEngine::SetTraceRecorder(TraceRecorder* recorder) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  trace_ = recorder;
  const std::shared_ptr<const ServingVersion> cur = Acquire();
  cur->engine->SetTraceRecorder(recorder);
  if (cur->facade != nullptr) cur->facade->SetTraceRecorder(recorder);
}

LiveIngestStats LiveEngine::Stats() const {
  LiveIngestStats out;
  const std::shared_ptr<const ServingVersion> cur = Acquire();
  out.snapshot_version = cur->snapshot_version;
  out.knowledge_version = cur->knowledge->version;
  out.rows_total = cur->num_rows;
  out.last_delta_rows = cur->delta_rows;
  out.knowledge_staleness_rows =
      cur->num_rows >= cur->knowledge->mined_at_rows
          ? cur->num_rows - cur->knowledge->mined_at_rows
          : 0;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    out.pending_rows = pending_.size();
    out.ingested_rows_total = ingested_rows_total_;
  }
  out.publishes_total = publishes_total_.load(std::memory_order_relaxed);
  out.refreshes_total = refreshes_total_.load(std::memory_order_relaxed);
  out.publish_latency = publish_latency_.Snapshot();
  return out;
}

}  // namespace aimq
