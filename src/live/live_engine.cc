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
  if (live->options_.engine.probe_cache_capacity > 0) {
    live->cache_ = std::make_shared<ProbeCache>(
        live->options_.engine.probe_cache_capacity);
    live->cache_->EnableCoalescing(live->options_.shards.coalesce_probes);
  }

  auto v0 = std::make_shared<ServingVersion>();
  v0->snapshot_version = initial_source->columnar()->snapshot_version();
  v0->num_rows = initial_source->NumTuples();
  // The initial source stays externally owned: alias it through a no-op
  // deleter so the version layout is uniform without transferring
  // ownership (and with zero behavior change when ingest is never used).
  v0->source = std::shared_ptr<const WebDatabase>(initial_source,
                                                  [](const WebDatabase*) {});
  AIMQ_ASSIGN_OR_RETURN(v0->facade, live->BuildFacade(v0->source, nullptr));
  v0->knowledge = std::make_shared<const KnowledgeVersion>(KnowledgeVersion{
      /*version=*/1, v0->snapshot_version, v0->num_rows,
      std::move(knowledge)});
  v0->knowledge_version = v0->knowledge->version;
  v0->engine = live->BuildEngine(v0->facade.get(), *v0->knowledge);
  live->Install(std::move(v0));
  return live;
}

Result<std::shared_ptr<ShardedWebDatabase>> LiveEngine::BuildFacade(
    std::shared_ptr<const WebDatabase> source,
    const ShardedWebDatabase* prev) const {
  AIMQ_ASSIGN_OR_RETURN(
      std::shared_ptr<ShardedWebDatabase> facade,
      ShardedWebDatabase::Create(std::move(source), options_.shards, prev));
  if (trace_ != nullptr) facade->SetTraceRecorder(trace_);
  return facade;
}

std::unique_ptr<AimqEngine> LiveEngine::BuildEngine(
    const ShardedWebDatabase* facade, const KnowledgeVersion& kv) const {
  // Each version gets its own engine over a *copy* of the knowledge
  // edition, and with it an empty expansion memo: memoized expansions are
  // version-specific.
  auto engine =
      std::make_unique<AimqEngine>(facade, kv.knowledge, options_.engine);
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

  // The serving snapshot extends the previous one in its own storage form
  // and continues its lineage, so probe-cache entries carry over.
  Result<std::shared_ptr<const ColumnarRelation>> extended =
      ColumnarRelation::Extend(*cur->source->columnar(), delta, new_version);
  if (!extended.ok()) {
    restore();
    return extended.status();
  }
  auto src = std::make_shared<WebDatabase>(name_, std::move(*extended));
  // A version keeps posting lists iff its predecessor had them: extend the
  // previous version's lists with the delta rows only.
  src->ExtendPostingLists(*cur->source);

  // Re-plan row ranges over the grown relation and swap the shard set
  // generation-at-a-time: the old facade keeps serving its version's
  // queries until the last one drains, and the new one takes over its
  // per-shard accounting.
  Result<std::shared_ptr<ShardedWebDatabase>> facade =
      BuildFacade(src, cur->facade.get());
  if (!facade.ok()) {
    restore();
    return facade.status();
  }

  auto next = std::make_shared<ServingVersion>();
  next->snapshot_version = new_version;
  next->knowledge_version = cur->knowledge->version;
  next->num_rows = src->NumTuples();
  next->delta_rows = delta.size();
  next->source = std::move(src);
  next->facade = std::move(*facade);
  next->knowledge = cur->knowledge;
  next->engine = BuildEngine(next->facade.get(), *next->knowledge);

  Install(std::move(next));
  publishes_total_.fetch_add(1, std::memory_order_relaxed);
  publish_latency_.Record(timer.ElapsedSeconds());
  return new_version;
}

Result<uint64_t> LiveEngine::RefreshKnowledge() {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const std::shared_ptr<const ServingVersion> cur = Acquire();
  // Mine against the serving source of the current version. publish_mu_
  // stays held through mining, so publishes wait until the new edition is
  // installed.
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
  next->source = cur->source;
  next->facade = cur->facade;
  next->knowledge = std::move(kv);
  next->engine = BuildEngine(next->facade.get(), *next->knowledge);

  Install(std::move(next));
  refreshes_total_.fetch_add(1, std::memory_order_relaxed);
  return new_kv;
}

void LiveEngine::Install(std::shared_ptr<const ServingVersion> next) {
  {
    std::lock_guard<std::mutex> lock(current_mu_);
    current_.swap(next);
  }
  // `next` now holds the replaced version, destroyed here if this was its
  // last reference.
}

void LiveEngine::SetTraceRecorder(TraceRecorder* recorder) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  trace_ = recorder;
  const std::shared_ptr<const ServingVersion> cur = Acquire();
  cur->engine->SetTraceRecorder(recorder);
  cur->facade->SetTraceRecorder(recorder);
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
