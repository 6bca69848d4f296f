#include "webdb/probe_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "util/parallel.h"

namespace aimq {
namespace {

Schema TwoColumnSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical}})
      .ValueOrDie();
}

WebDatabase MakeDb() {
  Relation data(TwoColumnSchema());
  EXPECT_TRUE(
      data.Append(Tuple({Value::Cat("Toyota"), Value::Cat("Camry")})).ok());
  EXPECT_TRUE(
      data.Append(Tuple({Value::Cat("Toyota"), Value::Cat("Corolla")})).ok());
  EXPECT_TRUE(
      data.Append(Tuple({Value::Cat("Honda"), Value::Cat("Civic")})).ok());
  return WebDatabase("ToyDB", std::move(data));
}

SelectionQuery MakeQuery(const std::string& make) {
  return SelectionQuery({Predicate::Eq("Make", Value::Cat(make))});
}

TEST(ProbeCacheTest, MissProbesThenHitSparesTheSource) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);

  bool hit = true;
  auto first = cache.Execute(db, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(first->size(), 2u);
  EXPECT_EQ(db.stats().queries_issued, 1u);

  auto second = cache.Execute(db, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(second->size(), 2u);
  // The source was not probed again.
  EXPECT_EQ(db.stats().queries_issued, 1u);
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], (*second)[i]);
  }

  ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ProbeCacheTest, EquivalentQueriesShareOneEntry) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);

  SelectionQuery forward({Predicate::Eq("Make", Value::Cat("Toyota")),
                          Predicate::Eq("Model", Value::Cat("Camry"))});
  SelectionQuery reversed({Predicate::Eq("Model", Value::Cat("Camry")),
                           Predicate::Eq("Make", Value::Cat("Toyota"))});
  const ProbeKey forward_key = ProbeKey::ForQuery(*db.columnar(), forward);
  const ProbeKey reversed_key = ProbeKey::ForQuery(*db.columnar(), reversed);
  EXPECT_EQ(forward_key, reversed_key);
  EXPECT_EQ(forward_key.hash(), reversed_key.hash());

  ASSERT_TRUE(cache.Execute(db, forward).ok());
  bool hit = false;
  auto answers = cache.Execute(db, reversed, &hit);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(answers->size(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(db.stats().queries_issued, 1u);
}

TEST(ProbeCacheTest, DistinctQueriesDoNotCollide) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota")).ok());
  bool hit = true;
  auto honda = cache.Execute(db, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(honda.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(honda->size(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProbeCacheTest, LruEvictionDropsTheColdestEntry) {
  WebDatabase db = MakeDb();
  ProbeCache cache(2);

  SelectionQuery toyota = MakeQuery("Toyota");
  SelectionQuery honda = MakeQuery("Honda");
  SelectionQuery camry({Predicate::Eq("Model", Value::Cat("Camry"))});

  ASSERT_TRUE(cache.Execute(db, toyota).ok());  // LRU order: [toyota]
  ASSERT_TRUE(cache.Execute(db, honda).ok());   // [honda, toyota]
  ASSERT_TRUE(cache.Execute(db, toyota).ok());  // refresh: [toyota, honda]
  ASSERT_TRUE(cache.Execute(db, camry).ok());   // evicts honda
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(db, toyota));
  EXPECT_TRUE(cache.Contains(db, camry));
  EXPECT_FALSE(cache.Contains(db, honda));
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted query must be re-probed.
  const uint64_t probes_before = db.stats().queries_issued;
  bool hit = true;
  ASSERT_TRUE(cache.Execute(db, honda, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(db.stats().queries_issued, probes_before + 1);
}

TEST(ProbeCacheTest, ZeroCapacityIsAPassThrough) {
  WebDatabase db = MakeDb();
  ProbeCache cache(0);
  bool hit = true;
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota"), &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota"), &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(db.stats().queries_issued, 2u);
}

TEST(ProbeCacheTest, ErrorsAreNotCached) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);
  SelectionQuery bad({Predicate::Eq("Nope", Value::Cat("x"))});
  EXPECT_FALSE(cache.Execute(db, bad).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProbeCacheTest, ClearResetsEntriesAndCounters) {
  WebDatabase db = MakeDb();
  ProbeCache cache(8);
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota")).ok());
  ASSERT_TRUE(cache.Execute(db, MakeQuery("Toyota")).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// Wraps the snapshot of \p base extended by \p delta as a new source at
// \p version (what live ingest's publish does).
WebDatabase ExtendDb(const WebDatabase& base, const std::vector<Tuple>& delta,
                     uint64_t version) {
  auto extended = ColumnarRelation::Extend(*base.columnar(), delta, version);
  EXPECT_TRUE(extended.ok());
  return WebDatabase(base.name(), *extended);
}

// The rows \p db's own scan returns for \p query (no cache).
std::vector<uint32_t> DirectRows(const WebDatabase& db,
                                 const SelectionQuery& query) {
  auto rows = db.ExecuteRows(query);
  EXPECT_TRUE(rows.ok());
  return rows.ok() ? *rows : std::vector<uint32_t>{};
}

TEST(ProbeCacheTest, PublishedVersionsKeepEveryEntry) {
  WebDatabase v0 = MakeDb();
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Ford"), Value::Cat("Focus")})}, 1);
  ProbeCache cache(8);

  ASSERT_TRUE(cache.Execute(v0, MakeQuery("Toyota")).ok());
  ASSERT_TRUE(cache.Execute(v0, MakeQuery("Honda")).ok());
  ASSERT_TRUE(cache.Execute(v1, MakeQuery("Ford")).ok());
  ASSERT_EQ(cache.size(), 3u);

  // Nothing ages out: the v0 entries serve v1 (the delta adds no Toyota or
  // Honda row) and keep serving v0.
  EXPECT_TRUE(cache.Contains(v1, MakeQuery("Ford")));
  for (const char* make : {"Toyota", "Honda"}) {
    EXPECT_TRUE(cache.Contains(v0, MakeQuery(make))) << make;
    EXPECT_TRUE(cache.Contains(v1, MakeQuery(make))) << make;
    for (const WebDatabase* db : {&v1, &v0}) {
      bool hit = false;
      auto rows = cache.ExecuteRows(*db, MakeQuery(make), &hit);
      ASSERT_TRUE(rows.ok());
      EXPECT_TRUE(hit) << make;
      EXPECT_EQ(**rows, DirectRows(*db, MakeQuery(make))) << make;
    }
  }
  EXPECT_EQ(cache.size(), 3u);
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.version_evictions, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.extended, 2u);  // Toyota and Honda, once each
}

TEST(ProbeCacheTest, StaleVersionEntriesNeverAnswerNewVersionProbes) {
  WebDatabase v0 = MakeDb();
  ProbeCache cache(8);
  auto old_rows = cache.ExecuteRows(v0, MakeQuery("Toyota"));
  ASSERT_TRUE(old_rows.ok());
  ASSERT_EQ((*old_rows)->size(), 2u);

  // Same logical query against the extended snapshot: the cached v0 answer
  // is not served as is — it is extended over the delta row, which matches.
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Toyota"), Value::Cat("Prius")})}, 1);
  bool hit = false;
  auto new_rows = cache.ExecuteRows(v1, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ((*new_rows)->size(), 3u);
  EXPECT_EQ(cache.stats().extended, 1u);
}

TEST(ProbeCacheTest, ExtensionEvaluatesOnlyTheDeltaRows) {
  WebDatabase v0 = MakeDb();
  ProbeCache cache(8);
  ASSERT_TRUE(cache.ExecuteRows(v0, MakeQuery("Toyota")).ok());
  WebDatabase v1 =
      ExtendDb(v0,
               {Tuple({Value::Cat("Toyota"), Value::Cat("Prius")}),
                Tuple({Value::Cat("Honda"), Value::Cat("Fit")}),
                Tuple({Value::Cat("Toyota"), Value::Cat("Camry")})},
               1);

  bool hit = false;
  auto rows = cache.ExecuteRows(v1, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**rows, (std::vector<uint32_t>{0, 1, 3, 5}));
  // One delta probe reached v1; the full scan was spared.
  EXPECT_EQ(v1.stats().queries_issued, 1u);
  EXPECT_EQ(v1.stats().tuples_returned, 2u);
  EXPECT_EQ(**rows, DirectRows(v1, MakeQuery("Toyota")));
  ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.extended, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // The entry now covers v1: the next lookup is a plain hit on that list.
  auto again = cache.ExecuteRows(v1, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(again->get(), rows->get());
  EXPECT_EQ(v1.stats().queries_issued, 2u);  // the direct check above
  EXPECT_EQ(cache.stats().extended, 1u);
}

TEST(ProbeCacheTest, EmptyDeltaRestampsTheSameList) {
  WebDatabase v0 = MakeDb();
  ProbeCache cache(8);
  auto old_rows = cache.ExecuteRows(v0, MakeQuery("Honda"));
  ASSERT_TRUE(old_rows.ok());
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Ford"), Value::Cat("Focus")})}, 1);

  bool hit = false;
  auto new_rows = cache.ExecuteRows(v1, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(new_rows.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(new_rows->get(), old_rows->get());  // no copy
  EXPECT_EQ(cache.stats().extended, 1u);

  // Re-stamped at v1's row count: no second extension.
  auto again = cache.ExecuteRows(v1, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), old_rows->get());
  EXPECT_EQ(cache.stats().extended, 1u);
  EXPECT_EQ(v1.stats().queries_issued, 1u);
}

TEST(ProbeCacheTest, OlderReaderGetsThePrefixAndLeavesTheEntry) {
  WebDatabase v0 = MakeDb();
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Toyota"), Value::Cat("Prius")})}, 1);
  ProbeCache cache(8);
  auto newest = cache.ExecuteRows(v1, MakeQuery("Toyota"));
  ASSERT_TRUE(newest.ok());
  ASSERT_EQ(**newest, (std::vector<uint32_t>{0, 1, 3}));

  bool hit = false;
  auto older = cache.ExecuteRows(v0, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(older.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**older, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(v0.stats().queries_issued, 0u);

  // The v1 entry is untouched; a prefix that is the whole list is the list.
  auto current = cache.ExecuteRows(v1, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->get(), newest->get());
  auto honda = cache.ExecuteRows(v1, MakeQuery("Honda"));
  ASSERT_TRUE(honda.ok());
  auto honda_older = cache.ExecuteRows(v0, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(honda_older.ok());
  EXPECT_EQ(honda_older->get(), honda->get());
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.extended, 0u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(ProbeCacheTest, DeltaErrorIsNotCachedAndTheEntrySurvives) {
  // A range predicate on a categorical attribute fails on every non-null
  // row it reaches. v0's Toyota rows hold no Model, so v0 answers cleanly;
  // v1 adds a Toyota row with a Model, which the delta probe must reject.
  Relation data(TwoColumnSchema());
  ASSERT_TRUE(data.Append(Tuple({Value::Cat("Toyota"), Value()})).ok());
  ASSERT_TRUE(
      data.Append(Tuple({Value::Cat("Honda"), Value::Cat("Civic")})).ok());
  WebDatabase v0("ToyDB", std::move(data));
  const SelectionQuery query(
      {Predicate::Eq("Make", Value::Cat("Toyota")),
       Predicate("Model", CompareOp::kLt, Value::Num(5))});
  ProbeCache cache(8);
  auto old_rows = cache.ExecuteRows(v0, query);
  ASSERT_TRUE(old_rows.ok()) << old_rows.status().ToString();
  EXPECT_TRUE((*old_rows)->empty());

  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Toyota"), Value::Cat("Prius")})}, 1);
  const auto direct = v1.ExecuteRows(query);
  ASSERT_FALSE(direct.ok());
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto extended = cache.ExecuteRows(v1, query);
    ASSERT_FALSE(extended.ok());
    EXPECT_EQ(extended.status().ToString(), direct.status().ToString());
  }
  // Every attempt re-evaluated the delta: the failure was never cached.
  EXPECT_EQ(cache.stats().extended, 2u);

  // The v0 entry still serves v0 readers, unchanged.
  bool hit = false;
  auto again = cache.ExecuteRows(v0, query, &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(again->get(), old_rows->get());
  EXPECT_EQ(cache.size(), 1u);
}

// Hits hand out the entry's row list itself; a holder keeps reading it
// however the cache drops or replaces the entry afterwards.
TEST(ProbeCacheTest, HitHandleOutlivesEvictionAgingAndClear) {
  WebDatabase v0 = MakeDb();
  ProbeCache cache(1);
  const std::vector<uint32_t> toyota_rows{0, 1};

  auto miss = cache.ExecuteRows(v0, MakeQuery("Toyota"));
  ASSERT_TRUE(miss.ok());
  bool hit = false;
  auto held = cache.ExecuteRows(v0, MakeQuery("Toyota"), &hit);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(hit);
  EXPECT_EQ(held->get(), miss->get());  // the same list, not a copy

  // Capacity eviction.
  ASSERT_TRUE(cache.ExecuteRows(v0, MakeQuery("Honda")).ok());
  ASSERT_FALSE(cache.Contains(v0, MakeQuery("Toyota")));
  EXPECT_EQ(**held, toyota_rows);

  // A publish ages the entry: the next version extends it into a new list
  // that replaces the one the holder has.
  auto honda = cache.ExecuteRows(v0, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(honda.ok());
  ASSERT_TRUE(hit);
  WebDatabase v1 =
      ExtendDb(v0, {Tuple({Value::Cat("Honda"), Value::Cat("Fit")})}, 1);
  auto honda_v1 = cache.ExecuteRows(v1, MakeQuery("Honda"), &hit);
  ASSERT_TRUE(honda_v1.ok());
  ASSERT_TRUE(hit);
  EXPECT_NE(honda_v1->get(), honda->get());
  EXPECT_EQ(**honda_v1, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(**honda, std::vector<uint32_t>{2});

  // Clear.
  auto ford = cache.ExecuteRows(
      v1, SelectionQuery({Predicate::Eq("Model", Value::Cat("Fit"))}));
  ASSERT_TRUE(ford.ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(**ford, std::vector<uint32_t>{3});
  EXPECT_EQ(**honda_v1, (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(**held, toyota_rows);
}

TEST(ProbeCacheTest, ReadersKeepRowsWhileEntriesChurn) {
  WebDatabase db = MakeDb();
  ProbeCache cache(1);  // every other lookup evicts the previous entry
  const std::vector<std::string> makes{"Toyota", "Honda"};
  std::atomic<size_t> wrong_answers{0};
  ParallelFor(400, 8, [&](size_t i) {
    if (i % 50 == 0) cache.Clear();
    const std::string& make = makes[i % makes.size()];
    auto rows = cache.ExecuteRows(db, MakeQuery(make));
    if (!rows.ok()) {
      ++wrong_answers;
      return;
    }
    // Re-read after other workers have had the chance to evict the entry.
    const std::vector<uint32_t> expected =
        make == "Toyota" ? std::vector<uint32_t>{0, 1}
                         : std::vector<uint32_t>{2};
    for (int pass = 0; pass < 3; ++pass) {
      if (**rows != expected) ++wrong_answers;
    }
  });
  EXPECT_EQ(wrong_answers.load(), 0u);
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
}

TEST(ProbeCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  WebDatabase db = MakeDb();
  ProbeCache cache(16);
  const std::vector<std::string> makes{"Toyota", "Honda", "Toyota", "Honda"};
  const size_t kRounds = 400;

  std::atomic<size_t> wrong_answers{0};
  ParallelFor(kRounds, 8, [&](size_t i) {
    const std::string& make = makes[i % makes.size()];
    auto result = cache.Execute(db, MakeQuery(make));
    if (!result.ok()) {
      ++wrong_answers;
      return;
    }
    const size_t expected = make == "Toyota" ? 2 : 1;
    if (result->size() != expected) ++wrong_answers;
    for (const Tuple& t : *result) {
      if (t.At(0).AsCat() != make) ++wrong_answers;
    }
  });
  EXPECT_EQ(wrong_answers.load(), 0u);

  ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kRounds);
  EXPECT_EQ(stats.hits + stats.misses, kRounds);
  // Every miss is one physical probe; racing first-misses may duplicate a
  // probe but never lose one, and steady state serves from the cache.
  EXPECT_EQ(db.stats().queries_issued, stats.misses);
  EXPECT_GE(stats.misses, 2u);
  EXPECT_GT(stats.hits, kRounds / 2);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace aimq
