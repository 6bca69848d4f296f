// LiveEngine unit tests: versioned publish/refresh semantics, ingest
// validation, version capture across swaps, shared-cache carry-forward, and
// the stats surface the serving metrics read.

#include "live/live_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/cardb.h"

namespace aimq {
namespace {

ImpreciseQuery ModelQuery(const std::string& model) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat(model));
  return q;
}

class LiveEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 400;
    spec.seed = 11;
    data_ = new Relation(CarDbGenerator(spec).Generate());
    db_ = new WebDatabase("CarDB", *data_);

    CarDbSpec delta_spec;
    delta_spec.num_tuples = 60;
    delta_spec.seed = 77;
    delta_ = new Relation(CarDbGenerator(delta_spec).Generate());

    options_ = new AimqOptions();
    options_->collector.sample_size = 200;
    options_->tsim = 0.4;
    options_->top_k = 10;
    options_->num_threads = 1;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete delta_;
    delete db_;
    delete data_;
    knowledge_ = nullptr;
    options_ = nullptr;
    delta_ = nullptr;
    db_ = nullptr;
    data_ = nullptr;
  }

  static std::unique_ptr<LiveEngine> MakeLive(size_t cache_capacity = 0,
                                              size_t num_shards = 1) {
    LiveOptions lopts;
    lopts.engine = *options_;
    lopts.engine.probe_cache_capacity = cache_capacity;
    lopts.shards.num_shards = num_shards;
    auto live = LiveEngine::Create(db_, *knowledge_, lopts);
    EXPECT_TRUE(live.ok()) << live.status().ToString();
    return live.ok() ? live.TakeValue() : nullptr;
  }

  static std::vector<Tuple> DeltaRows(size_t begin, size_t count) {
    std::vector<Tuple> rows;
    for (size_t i = begin; i < begin + count && i < delta_->NumTuples(); ++i) {
      rows.push_back(delta_->tuple(i));
    }
    return rows;
  }

  static Relation* data_;
  static WebDatabase* db_;
  static Relation* delta_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

Relation* LiveEngineTest::data_ = nullptr;
WebDatabase* LiveEngineTest::db_ = nullptr;
Relation* LiveEngineTest::delta_ = nullptr;
AimqOptions* LiveEngineTest::options_ = nullptr;
MinedKnowledge* LiveEngineTest::knowledge_ = nullptr;

TEST_F(LiveEngineTest, InitialVersionMatchesDirectEngine) {
  auto live = MakeLive();
  ASSERT_NE(live, nullptr);
  const auto v0 = live->Acquire();
  EXPECT_EQ(v0->snapshot_version, 0u);
  EXPECT_EQ(v0->knowledge_version, 1u);
  EXPECT_EQ(v0->num_rows, db_->NumTuples());
  EXPECT_EQ(v0->source.get(), db_);  // aliases the external source

  AimqOptions serial = *options_;
  serial.num_threads = 1;
  serial.probe_cache_capacity = 0;
  AimqEngine reference(db_, *knowledge_, serial);
  auto served = v0->engine->Answer(ModelQuery("Camry"));
  auto direct = reference.Answer(ModelQuery("Camry"));
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(served->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*served)[i].tuple, (*direct)[i].tuple);
    EXPECT_EQ((*served)[i].similarity, (*direct)[i].similarity);
  }
}

TEST_F(LiveEngineTest, IngestValidatesAllOrNothing) {
  auto live = MakeLive();
  ASSERT_NE(live, nullptr);
  std::vector<Tuple> batch = DeltaRows(0, 2);
  batch.push_back(Tuple({Value::Cat("only one column")}));  // bad arity
  EXPECT_FALSE(live->Ingest(std::move(batch)).ok());
  EXPECT_EQ(live->Stats().pending_rows, 0u);
  EXPECT_EQ(live->Stats().ingested_rows_total, 0u);

  // Type mismatch: numeric attribute fed a string.
  std::vector<Value> bad(db_->schema().NumAttributes());
  auto price = db_->schema().IndexOf("Price");
  ASSERT_TRUE(price.ok());
  bad[*price] = Value::Cat("not a number");
  EXPECT_FALSE(live->Ingest({Tuple(std::move(bad))}).ok());
  EXPECT_EQ(live->Stats().pending_rows, 0u);

  // Nulls are allowed anywhere.
  EXPECT_TRUE(
      live->Ingest({Tuple(std::vector<Value>(db_->schema().NumAttributes()))})
          .ok());
  EXPECT_EQ(live->Stats().pending_rows, 1u);
  EXPECT_EQ(live->Stats().ingested_rows_total, 1u);
}

TEST_F(LiveEngineTest, PublishAdvancesVersionAndGrowsRows) {
  auto live = MakeLive();
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Ingest(DeltaRows(0, 25)).ok());
  EXPECT_EQ(live->Stats().pending_rows, 25u);

  auto published = live->PublishSnapshot();
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(*published, 1u);

  const auto v1 = live->Acquire();
  EXPECT_EQ(v1->snapshot_version, 1u);
  EXPECT_EQ(v1->num_rows, db_->NumTuples() + 25);
  EXPECT_EQ(v1->delta_rows, 25u);
  EXPECT_EQ(v1->source->NumTuples(), db_->NumTuples() + 25);
  EXPECT_TRUE(v1->source->has_posting_lists());

  const LiveIngestStats stats = live->Stats();
  EXPECT_EQ(stats.snapshot_version, 1u);
  EXPECT_EQ(stats.pending_rows, 0u);
  EXPECT_EQ(stats.publishes_total, 1u);
  EXPECT_EQ(stats.last_delta_rows, 25u);
  EXPECT_EQ(stats.rows_total, db_->NumTuples() + 25);
  EXPECT_EQ(stats.knowledge_staleness_rows, 25u);
  EXPECT_EQ(stats.publish_latency.count, 1u);
}

TEST_F(LiveEngineTest, EmptyPublishStillAdvancesTheVersion) {
  auto live = MakeLive();
  ASSERT_NE(live, nullptr);
  auto published = live->PublishSnapshot();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1u);
  EXPECT_EQ(live->Acquire()->num_rows, db_->NumTuples());
  EXPECT_EQ(live->Acquire()->delta_rows, 0u);
}

TEST_F(LiveEngineTest, CapturedVersionSurvivesLaterPublishes) {
  auto live = MakeLive();
  ASSERT_NE(live, nullptr);
  const auto v0 = live->Acquire();
  auto before = v0->engine->Answer(ModelQuery("Civic"));
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(live->Ingest(DeltaRows(0, 40)).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());

  // The captured version still answers over its own rows, unchanged.
  EXPECT_EQ(v0->num_rows, db_->NumTuples());
  auto after = v0->engine->Answer(ModelQuery("Civic"));
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].tuple, (*after)[i].tuple);
    EXPECT_EQ((*before)[i].similarity, (*after)[i].similarity);
  }
  EXPECT_EQ(live->Acquire()->snapshot_version, 2u);
}

TEST_F(LiveEngineTest, RefreshKnowledgeSharesSnapshotAndResetsStaleness) {
  auto live = MakeLive();
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Ingest(DeltaRows(0, 30)).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  const auto v1 = live->Acquire();
  EXPECT_EQ(live->Stats().knowledge_staleness_rows, 30u);

  auto refreshed = live->RefreshKnowledge();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(*refreshed, 2u);

  const auto v2 = live->Acquire();
  EXPECT_EQ(v2->knowledge_version, 2u);
  EXPECT_EQ(v2->snapshot_version, 1u);  // knowledge-only swap
  EXPECT_EQ(v2->source, v1->source);
  EXPECT_NE(v2->engine.get(), v1->engine.get());
  EXPECT_EQ(v2->knowledge->mined_at_rows, v2->num_rows);
  EXPECT_EQ(live->Stats().knowledge_staleness_rows, 0u);
  EXPECT_EQ(live->Stats().refreshes_total, 1u);

  // The new edition answers; the superseded version's engine still works.
  EXPECT_TRUE(v2->engine->Answer(ModelQuery("Camry")).ok());
  EXPECT_TRUE(v1->engine->Answer(ModelQuery("Camry")).ok());
}

TEST_F(LiveEngineTest, PublishCarriesCacheEntriesForward) {
  // A source over a snapshot of its own: only the first Extend of a
  // snapshot continues its lineage, and other tests' publishes extend
  // db_'s.
  Relation own_rows(data_->schema());
  for (const Tuple& t : data_->tuples()) own_rows.AppendUnchecked(t);
  const WebDatabase own_db("CarDB", std::move(own_rows));
  LiveOptions lopts;
  lopts.engine = *options_;
  lopts.engine.probe_cache_capacity = 1 << 14;
  auto created = LiveEngine::Create(&own_db, *knowledge_, lopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const std::unique_ptr<LiveEngine> live = created.TakeValue();
  ASSERT_NE(live->probe_cache(), nullptr);
  ASSERT_TRUE(live->Acquire()->engine->Answer(ModelQuery("Camry")).ok());
  const size_t cached = live->probe_cache()->size();
  ASSERT_GT(cached, 0u);

  // The publish keeps every entry.
  ASSERT_TRUE(live->Ingest(DeltaRows(0, 20)).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  EXPECT_EQ(live->probe_cache()->size(), cached);
  EXPECT_EQ(live->probe_cache()->stats().version_evictions, 0u);

  // The next version's answers extend those entries over the 20 new rows
  // and equal a fresh, cache-free engine's over the same rows.
  const auto v1 = live->Acquire();
  Relation rows(db_->schema());
  const ColumnarRelation& cols = *v1->source->columnar();
  for (size_t row = 0; row < cols.NumRows(); ++row) {
    rows.AppendUnchecked(cols.MaterializeTuple(row));
  }
  const WebDatabase fresh_db("CarDB", std::move(rows));
  AimqOptions serial = *options_;
  serial.probe_cache_capacity = 0;
  AimqEngine fresh(&fresh_db, *knowledge_, serial);
  for (const char* model : {"Camry", "Civic"}) {
    auto served = v1->engine->Answer(ModelQuery(model));
    auto expected = fresh.Answer(ModelQuery(model));
    ASSERT_TRUE(served.ok());
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(served->size(), expected->size()) << model;
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*served)[i].tuple, (*expected)[i].tuple) << model;
      EXPECT_EQ((*served)[i].similarity, (*expected)[i].similarity) << model;
    }
  }
  EXPECT_GT(live->probe_cache()->stats().extended, 0u);
}

TEST_F(LiveEngineTest, ShardedVersionsReplanRangesOnPublish) {
  auto live = MakeLive(/*cache_capacity=*/0, /*num_shards=*/4);
  ASSERT_NE(live, nullptr);
  const auto v0 = live->Acquire();
  EXPECT_EQ(v0->facade->num_shards(), 4u);

  ASSERT_TRUE(live->Ingest(DeltaRows(0, 40)).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  const auto v1 = live->Acquire();
  EXPECT_NE(v1->facade, v0->facade);  // generation-at-a-time swap
  EXPECT_EQ(v1->facade->NumTuples(), db_->NumTuples() + 40);
  // Old facade keeps serving the old version's rows.
  EXPECT_EQ(v0->facade->NumTuples(), db_->NumTuples());
}

// Unsharded serving is the one-shard plan: the shard is the version's
// source itself (no row copy) with no shard cache in front of it — the
// shared engine-level cache already is — before and after a publish.
TEST_F(LiveEngineTest, UnshardedVersionsServeAOneShardPlanOverTheSource) {
  auto live = MakeLive(/*cache_capacity=*/4096);
  ASSERT_NE(live, nullptr);
  const auto v0 = live->Acquire();
  ASSERT_EQ(v0->facade->num_shards(), 1u);
  EXPECT_EQ(v0->facade->shard(0).db.get(), db_);
  EXPECT_EQ(v0->facade->shard(0).accounting->cache, nullptr);

  ASSERT_TRUE(live->Ingest(DeltaRows(0, 40)).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  const auto v1 = live->Acquire();
  ASSERT_EQ(v1->facade->num_shards(), 1u);
  EXPECT_EQ(v1->facade->shard(0).db, v1->source);
  EXPECT_EQ(v1->facade->shard(0).accounting->cache, nullptr);
  EXPECT_EQ(v1->facade->shard(0).range.end, db_->NumTuples() + 40);
}

// Each version's facade takes over the previous one's per-shard accounting,
// so every shard counter the metrics export is monotone across a publish.
TEST_F(LiveEngineTest, ShardCountersSurvivePublishes) {
  auto live = MakeLive(/*cache_capacity=*/4096, /*num_shards=*/3);
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Acquire()->engine->Answer(ModelQuery("Camry")).ok());
  const std::vector<ShardProbeSnapshot> before =
      live->Acquire()->facade->ShardStats();
  ASSERT_EQ(before.size(), 3u);
  for (const ShardProbeSnapshot& s : before) {
    ASSERT_GT(s.queries_issued, 0u) << "shard " << s.shard;
    ASSERT_GT(s.cache.lookups, 0u) << "shard " << s.shard;
  }

  ASSERT_TRUE(live->Ingest(DeltaRows(0, 40)).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  // Camry's cached probes extend over the 40 new rows, which only the last
  // shard holds: the other shards see no new legs, so a counter that
  // restarted at the publish would read lower than before it.
  ASSERT_TRUE(live->Acquire()->engine->Answer(ModelQuery("Camry")).ok());
  const std::vector<ShardProbeSnapshot> after =
      live->Acquire()->facade->ShardStats();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "shard " << i);
    EXPECT_GE(after[i].queries_issued, before[i].queries_issued);
    EXPECT_GE(after[i].tuples_returned, before[i].tuples_returned);
    EXPECT_GE(after[i].cache.lookups, before[i].cache.lookups);
    EXPECT_GE(after[i].cache.hits, before[i].cache.hits);
    EXPECT_GE(after[i].cache.misses, before[i].cache.misses);
    EXPECT_GE(after[i].latency.count, before[i].latency.count);
    EXPECT_GE(after[i].latency.sum_seconds, before[i].latency.sum_seconds);
  }
}

// Every version's packed shards read block stores of their own, yet the
// block-cache counters the metrics export carry over a publish: a counter
// that restarted would read one query's worth after it, below the three
// queries' worth before.
TEST_F(LiveEngineTest, BlockCacheCountersSurvivePublishes) {
  LiveOptions lopts;
  lopts.engine = *options_;
  lopts.engine.probe_cache_capacity = 0;  // every probe reads the blocks
  lopts.shards.num_shards = 3;
  lopts.shards.packed_shards = true;
  lopts.shards.shard_cache_capacity = 0;
  auto live = LiveEngine::Create(db_, *knowledge_, lopts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*live)->Acquire()->engine->Answer(ModelQuery("Camry")).ok());
  }
  const auto before = (*live)->Acquire()->facade->ShardBlockStats();
  ASSERT_EQ(before.size(), 3u);
  for (const auto& [shard, stats] : before) {
    ASSERT_GT(stats.cache.hits + stats.cache.misses, 0u) << "shard " << shard;
  }

  ASSERT_TRUE((*live)->Ingest(DeltaRows(0, 40)).ok());
  ASSERT_TRUE((*live)->PublishSnapshot().ok());
  ASSERT_TRUE((*live)->Acquire()->engine->Answer(ModelQuery("Camry")).ok());
  const auto after = (*live)->Acquire()->facade->ShardBlockStats();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "shard " << i);
    const storage::BlockCache::Stats& was = before[i].second.cache;
    const storage::BlockCache::Stats& now = after[i].second.cache;
    EXPECT_EQ(after[i].first, before[i].first);
    EXPECT_GE(now.hits, was.hits);
    EXPECT_GE(now.misses, was.misses);
    EXPECT_GE(now.evictions, was.evictions);
    EXPECT_GE(now.decode_nanos, was.decode_nanos);
    // The new version's stores decoded blocks of their own on top.
    EXPECT_GT(now.hits + now.misses, was.hits + was.misses);
  }
}

}  // namespace
}  // namespace aimq
