// Sharding determinism contract (DESIGN.md §5h): the scatter/gather facade
// and the serving engine LiveEngine builds on it must answer bit-identically
// to the source/serial engine at every shard count (the one-shard plan
// included), thread count, snapshot mode (plain or packed shards), and ISA
// tier. Also pins the row-range plan, the facade's delta probes, and the
// per-shard posting lists for packed snapshots.

#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/knowledge.h"
#include "datagen/cardb.h"
#include "live/live_engine.h"
#include "query/predicate.h"
#include "shard/shard_plan.h"
#include "simd/dispatch.h"

namespace aimq {
namespace {

using simd::Isa;

// Forces a dispatch tier for one scope, restoring the prior tier after.
// ctest runs every case in its own process, so the force cannot leak.
class ScopedIsa {
 public:
  explicit ScopedIsa(const char* name) : prev_(simd::ActiveIsa()) {
    EXPECT_TRUE(simd::ForceIsa(name).ok());
  }
  ~ScopedIsa() { (void)simd::ForceIsa(simd::IsaName(prev_)); }

 private:
  Isa prev_;
};

// ---------------------------------------------------------------------------
// Row-range planning.

TEST(ShardPlanTest, EvenSplit) {
  const std::vector<ShardRange> plan = PlanRowRanges(100, 4);
  ASSERT_EQ(plan.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan[i].begin, 25 * i);
    EXPECT_EQ(plan[i].end, 25 * (i + 1));
  }
}

TEST(ShardPlanTest, RemainderGoesToLeadingShards) {
  const std::vector<ShardRange> plan = PlanRowRanges(10, 3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].NumRows(), 4u);
  EXPECT_EQ(plan[1].NumRows(), 3u);
  EXPECT_EQ(plan[2].NumRows(), 3u);
}

TEST(ShardPlanTest, ZeroShardsMeansOne) {
  const std::vector<ShardRange> plan = PlanRowRanges(7, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].begin, 0u);
  EXPECT_EQ(plan[0].end, 7u);
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesEmptyTails) {
  const std::vector<ShardRange> plan = PlanRowRanges(3, 7);
  ASSERT_EQ(plan.size(), 7u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(plan[i].NumRows(), 1u);
  for (size_t i = 3; i < 7; ++i) EXPECT_EQ(plan[i].NumRows(), 0u);
}

TEST(ShardPlanTest, RangesAreContiguousDisjointAndCoverEveryRow) {
  for (size_t rows : {0u, 1u, 5u, 97u, 1000u}) {
    for (size_t shards = 1; shards <= 9; ++shards) {
      const std::vector<ShardRange> plan = PlanRowRanges(rows, shards);
      ASSERT_EQ(plan.size(), shards);
      uint32_t next = 0;
      for (const ShardRange& range : plan) {
        EXPECT_EQ(range.begin, next);
        EXPECT_LE(range.begin, range.end);
        next = range.end;
      }
      EXPECT_EQ(next, rows) << rows << " rows over " << shards << " shards";
    }
  }
}

// ---------------------------------------------------------------------------
// Facade + engine equivalence over a real CarDB.

class ShardedEngineTest : public ::testing::Test {
 protected:
  // The fixture's CarDB relation, regenerated on each call.
  static Relation Data() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 11;
    return CarDbGenerator(spec).Generate();
  }

  static void SetUpTestSuite() {
    db_ = new WebDatabase("CarDB", Data());
    options_ = new AimqOptions();
    options_->collector.sample_size = 300;
    options_->tsim = 0.4;
    options_->top_k = 10;
    options_->base_set_limit = 12;  // small enough that every test query
                                    // exercises the sharded top-k trim
    // No evictions: with coalescing on, an eviction-free cache makes probe
    // accounting (miss exactly once per distinct key) deterministic even
    // under the parallel relaxation fan-out — which is what the stats
    // comparison below asserts.
    options_->probe_cache_capacity = 1 << 15;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete db_;
    knowledge_ = nullptr;
    options_ = nullptr;
    db_ = nullptr;
  }

  static std::unique_ptr<ShardedWebDatabase> MakeFacade(size_t shards,
                                                        bool packed) {
    ShardedEngineOptions sharding;
    sharding.num_shards = shards;
    sharding.packed_shards = packed;
    auto facade = ShardedWebDatabase::Create(Unowned(db_), sharding);
    EXPECT_TRUE(facade.ok()) << facade.status().ToString();
    return facade.TakeValue();
  }

  // The fixture owns db_; facades share it through a no-op deleter.
  static std::shared_ptr<const WebDatabase> Unowned(const WebDatabase* db) {
    return std::shared_ptr<const WebDatabase>(db, [](const WebDatabase*) {});
  }

  static WebDatabase* db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

WebDatabase* ShardedEngineTest::db_ = nullptr;
AimqOptions* ShardedEngineTest::options_ = nullptr;
MinedKnowledge* ShardedEngineTest::knowledge_ = nullptr;

SelectionQuery MakeQuery(std::vector<Predicate> predicates) {
  return SelectionQuery(std::move(predicates));
}

std::vector<ImpreciseQuery> TestQueries() {
  std::vector<ImpreciseQuery> queries;
  for (const char* model : {"Camry", "Civic", "Altima", "Outback"}) {
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat(model));
    queries.push_back(std::move(q));
  }
  ImpreciseQuery two;
  two.Bind("Model", Value::Cat("Accord"));
  two.Bind("Price", Value::Num(10000));
  queries.push_back(std::move(two));
  return queries;
}

TEST_F(ShardedEngineTest, FacadeRowsMatchSourceExactly) {
  const std::vector<SelectionQuery> probes = {
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Toyota"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Toyota")),
                 Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry")),
                 Predicate::Eq("Model", Value::Cat("Civic"))}),  // empty
  };
  for (size_t shards : {1u, 2u, 3u, 7u}) {
    auto facade = MakeFacade(shards, /*packed=*/false);
    ASSERT_EQ(facade->num_shards(), shards);
    for (const SelectionQuery& probe : probes) {
      auto expected = db_->ExecuteRows(probe);
      ASSERT_TRUE(expected.ok());
      auto actual = facade->ExecuteRows(probe);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(*actual, *expected)
          << probe.ToString() << " over " << shards << " shards";
      EXPECT_TRUE(std::is_sorted(actual->begin(), actual->end()));
    }
  }
}

// Satellite regression: packed shard snapshots build per-shard posting
// lists, and the index-assisted probe path pins the exact row ids the
// unsharded plain source returns.
TEST_F(ShardedEngineTest, PackedShardsWithPostingsPinIdenticalRowIds) {
  auto facade = MakeFacade(/*shards=*/3, /*packed=*/true);
  for (size_t i = 0; i < facade->num_shards(); ++i) {
    EXPECT_TRUE(facade->shard(i).db->has_posting_lists()) << "shard " << i;
    EXPECT_TRUE(facade->shard(i).db->columnar()->packed()) << "shard " << i;
  }
  const std::vector<SelectionQuery> probes = {
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Honda"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Nissan")),
                 Predicate::Eq("Model", Value::Cat("Altima"))}),
  };
  for (const SelectionQuery& probe : probes) {
    auto expected = db_->ExecuteRows(probe);
    ASSERT_TRUE(expected.ok());
    auto actual = facade->ExecuteRows(probe);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(*actual, *expected) << probe.ToString();
  }
}

TEST_F(ShardedEngineTest, FacadeRejectsLikeQueriesWithSourceErrorText) {
  auto facade = MakeFacade(/*shards=*/2, /*packed=*/false);
  const SelectionQuery bad =
      MakeQuery({Predicate::Like("Model", Value::Cat("Camry"))});
  auto from_source = db_->ExecuteRows(bad);
  auto from_facade = facade->ExecuteRows(bad);
  ASSERT_FALSE(from_source.ok());
  ASSERT_FALSE(from_facade.ok());
  EXPECT_EQ(from_facade.status().ToString(), from_source.status().ToString());
}

TEST_F(ShardedEngineTest, FacadeAccountsProbesLikeTheSource) {
  auto facade = MakeFacade(/*shards=*/3, /*packed=*/false);
  const SelectionQuery probe =
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))});
  auto rows = facade->ExecuteRows(probe);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(facade->stats().queries_issued.load(), 1u);
  EXPECT_EQ(facade->stats().tuples_returned.load(), rows->size());
  // Per-shard accounting covers the whole row space and sums to the probe.
  const std::vector<ShardProbeSnapshot> shards = facade->ShardStats();
  ASSERT_EQ(shards.size(), 3u);
  uint64_t shard_tuples = 0;
  for (const ShardProbeSnapshot& s : shards) {
    EXPECT_EQ(s.queries_issued, 1u) << "shard " << s.shard;
    shard_tuples += s.tuples_returned;
  }
  EXPECT_EQ(shard_tuples, rows->size());
}

TEST_F(ShardedEngineTest, RankTopKMergesLikeSerialTopKWithRowIdTieBreak) {
  auto facade = MakeFacade(/*shards=*/3, /*packed=*/false);
  std::vector<uint32_t> rows;
  for (uint32_t row = 0; row < 600; row += 2) rows.push_back(row);
  // Heavily tied scores: the merge must break ties by ascending row id,
  // exactly like a serial TopK fed ascending rows.
  const auto score = [](uint32_t row) {
    return static_cast<double>(row % 5);
  };
  for (size_t k : {1u, 7u, 50u, 600u}) {
    const auto ranked = facade->RankTopK(rows, k, score);
    std::vector<std::pair<double, uint32_t>> expected;
    for (uint32_t row : rows) expected.emplace_back(score(row), row);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first > b.first;
                       return a.second < b.second;
                     });
    if (expected.size() > k) expected.resize(k);
    EXPECT_EQ(ranked, expected) << "k=" << k;
  }
}

// The property: for every (shards, threads, snapshot mode) configuration,
// answers, similarity scores, and probe-accounting totals of the engine
// LiveEngine serves from are bit-identical to a serial engine probing the
// source directly. Probe coalescing (on by default) makes even the stats
// deterministic under the parallel fan-out: each distinct probe key is
// scanned exactly once per cache residency.
void ExpectShardedMatchesSerial(const WebDatabase& db,
                                const MinedKnowledge& knowledge,
                                const AimqOptions& base_options,
                                size_t num_shards, size_t num_threads,
                                bool packed) {
  AimqOptions serial = base_options;
  serial.num_threads = 1;
  AimqEngine reference(&db, knowledge, serial);

  LiveOptions lopts;
  lopts.engine = base_options;
  lopts.engine.num_threads = num_threads;
  lopts.shards.num_shards = num_shards;
  lopts.shards.packed_shards = packed;
  auto live = LiveEngine::Create(&db, knowledge, lopts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const std::shared_ptr<const ServingVersion> version = (*live)->Acquire();
  ASSERT_EQ(version->facade->num_shards(), num_shards);

  for (const ImpreciseQuery& query : TestQueries()) {
    RelaxationStats want_stats;
    auto want = reference.Answer(query, RelaxationStrategy::kGuided,
                                 &want_stats);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    RelaxationStats got_stats;
    auto got = version->engine->Answer(query, RelaxationStrategy::kGuided,
                                       &got_stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].tuple, (*want)[i].tuple) << "answer " << i;
      EXPECT_EQ((*got)[i].similarity, (*want)[i].similarity) << "answer " << i;
    }
    EXPECT_EQ(got_stats.queries_issued.load(), want_stats.queries_issued.load());
    EXPECT_EQ(got_stats.tuples_extracted.load(),
              want_stats.tuples_extracted.load());
    EXPECT_EQ(got_stats.tuples_relevant.load(),
              want_stats.tuples_relevant.load());
    EXPECT_EQ(got_stats.cache_hits.load(), want_stats.cache_hits.load());
  }
}

TEST_F(ShardedEngineTest, AnswersBitIdenticalAcrossShardAndThreadCounts) {
  for (size_t shards : {1u, 2u, 3u, 7u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ExpectShardedMatchesSerial(*db_, *knowledge_, *options_, shards,
                                 threads, /*packed=*/false);
    }
  }
}

TEST_F(ShardedEngineTest, AnswersBitIdenticalWithPackedShards) {
  for (size_t shards : {2u, 3u}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      ExpectShardedMatchesSerial(*db_, *knowledge_, *options_, shards,
                                 threads, /*packed=*/true);
    }
  }
}

TEST_F(ShardedEngineTest, AnswersBitIdenticalUnderForcedScalarIsa) {
  // The serial reference inside runs under the same forced tier; the fixture
  // knowledge was mined at native. Scoring is ISA-invariant (the kernel
  // equivalence contract), so answers must not move.
  ScopedIsa scalar("scalar");
  ExpectShardedMatchesSerial(*db_, *knowledge_, *options_, /*num_shards=*/3,
                             /*num_threads=*/4, /*packed=*/false);
}

TEST_F(ShardedEngineTest, ScatterThreadsDoNotChangeAnswers) {
  const SelectionQuery probe =
      MakeQuery({Predicate::Eq("Make", Value::Cat("Toyota"))});
  auto expected = db_->ExecuteRows(probe);
  ASSERT_TRUE(expected.ok());
  ShardedEngineOptions sharding;
  sharding.num_shards = 4;
  sharding.scatter_threads = 3;
  auto facade = ShardedWebDatabase::Create(Unowned(db_), sharding);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  auto actual = (*facade)->ExecuteRows(probe);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*actual, *expected);
}

// A delta probe through the facade equals the source's own delta at every
// shard count: skipped leading shards, the shard holding from_row (a local
// delta), and whole trailing shards (full probes) gather to the same rows.
TEST_F(ShardedEngineTest, FacadeExecuteRowsFromMatchesSource) {
  const std::vector<SelectionQuery> probes = {
      MakeQuery({Predicate::Eq("Model", Value::Cat("Camry"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Toyota"))}),
      MakeQuery({Predicate::Eq("Make", Value::Cat("Honda")),
                 Predicate::Eq("Model", Value::Cat("Civic"))}),
  };
  const size_t n = db_->NumTuples();
  for (size_t shards : {1u, 3u, 7u}) {
    auto facade = MakeFacade(shards, /*packed=*/false);
    const size_t boundary = facade->shard(shards / 2).range.begin;
    const size_t mid = facade->shard(0).range.end / 2;
    for (size_t from_row : {size_t{0}, boundary, mid, n}) {
      for (const SelectionQuery& probe : probes) {
        auto expected = db_->ExecuteRowsFrom(probe, from_row);
        ASSERT_TRUE(expected.ok());
        auto actual = facade->ExecuteRowsFrom(probe, from_row);
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        EXPECT_EQ(*actual, *expected) << probe.ToString() << " from row "
                                      << from_row << " over " << shards
                                      << " shards";
      }
    }
  }
}

// Counts the full probes that reach it, the way servebench's timed source
// and fault injectors observe a substituted source.
class CountingWebDatabase : public WebDatabase {
 public:
  using WebDatabase::WebDatabase;

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    ++full_probes_;
    return WebDatabase::ExecuteRows(query);
  }

  uint64_t full_probes() const { return full_probes_.load(); }

 private:
  mutable std::atomic<uint64_t> full_probes_{0};
};

// A substituted source keeps seeing every full probe through the one-shard
// plan: the facade routes them to its virtual ExecuteRows.
TEST_F(ShardedEngineTest, OneShardPlanSendsEveryFullProbeToTheSource) {
  const CountingWebDatabase source("CarDB", Data());
  LiveOptions lopts;
  lopts.engine = *options_;
  lopts.engine.num_threads = 1;
  lopts.engine.probe_cache_capacity = 0;  // every probe reaches the facade
  auto live = LiveEngine::Create(&source, *knowledge_, lopts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  const std::shared_ptr<const ServingVersion> version = (*live)->Acquire();
  ASSERT_EQ(version->facade->num_shards(), 1u);
  for (const ImpreciseQuery& query : TestQueries()) {
    ASSERT_TRUE(version->engine->Answer(query).ok());
  }
  const uint64_t probes = version->facade->stats().queries_issued.load();
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(source.full_probes(), probes);
}

}  // namespace
}  // namespace aimq
