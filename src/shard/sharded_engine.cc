#include "shard/sharded_engine.h"

#include <utility>

#include "util/stopwatch.h"

namespace aimq {
namespace {

// Adds \p from's cumulative block-cache counters to \p into's.
void AddBlockCounters(const storage::BlockCache::Stats& from,
                      storage::BlockCache::Stats* into) {
  into->hits += from.hits;
  into->misses += from.misses;
  into->evictions += from.evictions;
  into->decode_nanos += from.decode_nanos;
}

}  // namespace

Result<std::unique_ptr<ShardedWebDatabase>> ShardedWebDatabase::Create(
    std::shared_ptr<const WebDatabase> source,
    const ShardedEngineOptions& options, const ShardedWebDatabase* prev) {
  // The facade shares the source's snapshot: probe keys, scoring, and
  // materialization are byte-for-byte those of the source.
  std::unique_ptr<ShardedWebDatabase> facade(
      new ShardedWebDatabase(source->name(), source->columnar()));

  const std::vector<ShardRange> plan =
      PlanRowRanges(source->NumTuples(), options.num_shards);
  facade->shards_.reserve(plan.size());
  for (size_t s = 0; s < plan.size(); ++s) {
    Shard shard;
    shard.range = plan[s];
    if (prev != nullptr && s < prev->shards_.size()) {
      const Shard& earlier = prev->shards_[s];
      shard.accounting = earlier.accounting;
      shard.earlier_blocks = earlier.earlier_blocks;
      if (const storage::CodeBlockStore* store =
              earlier.db->columnar()->block_store()) {
        AddBlockCounters(store->GetStats().cache, &shard.earlier_blocks);
      }
    } else {
      shard.accounting = std::make_shared<Accounting>();
      if (plan.size() > 1 && options.shard_cache_capacity > 0) {
        shard.accounting->cache =
            std::make_unique<ProbeCache>(options.shard_cache_capacity);
      }
    }
    // Shard dbs reuse the source's name so any error a shard surfaces reads
    // exactly like the source's.
    if (plan.size() == 1) {
      // One-shard plan: the source answers as it is, and the engine-level
      // shared cache already sits in front of it.
      shard.db = source;
    } else if (options.packed_shards) {
      AIMQ_ASSIGN_OR_RETURN(std::unique_ptr<ColumnarBuilder> builder,
                            ColumnarBuilder::Create(source->schema(), {}));
      for (uint32_t row = shard.range.begin; row < shard.range.end; ++row) {
        AIMQ_RETURN_NOT_OK(builder->AppendRow(source->MaterializeRow(row)));
      }
      AIMQ_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> snapshot,
                            builder->Finish());
      auto db = std::make_shared<WebDatabase>(source->name(),
                                              std::move(snapshot));
      db->BuildPostingLists();
      shard.db = std::move(db);
    } else {
      Relation rows(source->schema());
      for (uint32_t row = shard.range.begin; row < shard.range.end; ++row) {
        rows.AppendUnchecked(source->MaterializeRow(row));
      }
      shard.db = std::make_shared<WebDatabase>(source->name(),
                                               std::move(rows));
    }
    facade->shards_.push_back(std::move(shard));
  }
  return facade;
}

Result<std::vector<uint32_t>> ShardedWebDatabase::ProbeShard(
    size_t s, const SelectionQuery& query, size_t from_row) const {
  const Shard& shard = shards_[s];
  Accounting& acct = *shard.accounting;
  // A one-shard plan's only leg is the engine's probe span already.
  TraceSpan span(shards_.size() > 1 ? trace_ : nullptr, "shard_probe",
                 "shard", TraceRecorder::CurrentRequestId());
  span.AddArg("shard", static_cast<double>(s));
  Stopwatch leg_timer;
  bool hit = false;
  Result<std::vector<uint32_t>> local = [&]() -> Result<std::vector<uint32_t>> {
    // The shard holding from_row answers its local delta; a shard the
    // requested rows cover whole answers a full probe.
    if (from_row > shard.range.begin) {
      return shard.db->ExecuteRowsFrom(query, from_row - shard.range.begin);
    }
    if (acct.cache == nullptr) return shard.db->ExecuteRows(query);
    AIMQ_ASSIGN_OR_RETURN(SharedRows rows,
                          acct.cache->ExecuteRows(*shard.db, query, &hit));
    return *rows;
  }();
  acct.latency.Record(leg_timer.ElapsedSeconds());
  if (!local.ok()) return local.status();
  if (!hit) {
    acct.queries_issued.fetch_add(1, std::memory_order_relaxed);
    acct.tuples_returned.fetch_add(local->size(), std::memory_order_relaxed);
  }
  // Local ids are ascending within [0, range.NumRows()); offsetting by the
  // range's begin lifts them into the global row space, still ascending.
  std::vector<uint32_t> rows = std::move(*local);
  if (shard.range.begin != 0) {
    for (uint32_t& row : rows) row += shard.range.begin;
  }
  span.AddArg("rows", static_cast<double>(rows.size()));
  span.AddArg("cache_hit", hit ? 1.0 : 0.0);
  return rows;
}

Result<std::vector<uint32_t>> ShardedWebDatabase::ExecuteRowsFrom(
    const SelectionQuery& query, size_t from_row) const {
  AIMQ_RETURN_NOT_OK(ValidateBooleanQuery(query));
  // Shards wholly before from_row have nothing to add.
  size_t first = 0;
  while (first < shards_.size() && shards_[first].range.end <= from_row) {
    ++first;
  }

  // Ranges are contiguous and disjoint, so concatenating the (ascending)
  // per-shard answers in shard order is already the globally ascending
  // row-id list — identical to the source's scan, no sort needed.
  std::vector<uint32_t> out;
  for (size_t s = first; s < shards_.size(); ++s) {
    AIMQ_ASSIGN_OR_RETURN(std::vector<uint32_t> leg,
                          ProbeShard(s, query, from_row));
    if (out.empty()) out = std::move(leg);
    else out.insert(out.end(), leg.begin(), leg.end());
  }
  AccountProbe(out.size());
  return out;
}

std::vector<ShardProbeSnapshot> ShardedWebDatabase::ShardStats() const {
  std::vector<ShardProbeSnapshot> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Accounting& acct = *shards_[s].accounting;
    ShardProbeSnapshot snap;
    snap.shard = s;
    snap.begin_row = shards_[s].range.begin;
    snap.end_row = shards_[s].range.end;
    snap.queries_issued = acct.queries_issued.load(std::memory_order_relaxed);
    snap.tuples_returned =
        acct.tuples_returned.load(std::memory_order_relaxed);
    if (acct.cache != nullptr) snap.cache = acct.cache->stats();
    snap.latency = acct.latency.Snapshot();
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<std::pair<size_t, storage::BlockStoreStats>>
ShardedWebDatabase::ShardBlockStats() const {
  std::vector<std::pair<size_t, storage::BlockStoreStats>> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const storage::CodeBlockStore* store =
        shards_[s].db->columnar()->block_store();
    if (store == nullptr) continue;
    storage::BlockStoreStats stats = store->GetStats();
    AddBlockCounters(shards_[s].earlier_blocks, &stats.cache);
    out.emplace_back(s, std::move(stats));
  }
  return out;
}

}  // namespace aimq
