// Cross-query probe coalescing: N concurrent sessions issuing the same
// probe must cost exactly one source scan — the first arrival leads, the
// rest park on its flight and are handed the leader's answer. Followers
// account as cache hits (and `coalesced`), and errors propagate to every
// waiter without being cached. Flights are per (key, source rows): sessions
// on different snapshots of one lineage never share one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/cardb.h"
#include "query/predicate.h"
#include "webdb/probe_cache.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

// A source whose probes block on a gate until released, so a test can hold
// the coalescing leader mid-scan while followers pile up. Optionally fails
// every probe with an injected error.
class GatedDb : public WebDatabase {
 public:
  GatedDb(std::string name, Relation data, bool fail = false)
      : WebDatabase(std::move(name), std::move(data)), fail_(fail) {}
  GatedDb(std::string name, std::shared_ptr<const ColumnarRelation> cols)
      : WebDatabase(std::move(name), std::move(cols)), fail_(false) {}

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    ++calls_;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (fail_) return Status::Unavailable("injected source failure");
    return WebDatabase::ExecuteRows(query);
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  int calls() const { return calls_.load(); }

 private:
  const bool fail_;
  mutable std::atomic<int> calls_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool released_ = false;  // guarded by mu_
};

// A source whose key-native delta path (ExecuteKeyFrom) blocks on a gate and
// then fails until told to recover; it counts the query-path deltas
// (ExecuteRowsFrom) that reach it as well.
class FailingDeltaDb : public WebDatabase {
 public:
  FailingDeltaDb(std::string name,
                 std::shared_ptr<const ColumnarRelation> cols)
      : WebDatabase(std::move(name), std::move(cols)) {}

  Result<std::vector<uint32_t>> ExecuteKeyFrom(
      const ProbeKey& key, size_t from_row) const override {
    ++key_calls_;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (failing_.load()) return Status::Unavailable("injected delta failure");
    return WebDatabase::ExecuteKeyFrom(key, from_row);
  }

  Result<std::vector<uint32_t>> ExecuteRowsFrom(
      const SelectionQuery& query, size_t from_row) const override {
    ++query_calls_;
    return WebDatabase::ExecuteRowsFrom(query, from_row);
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  void Recover() { failing_.store(false); }

  int key_calls() const { return key_calls_.load(); }
  int query_calls() const { return query_calls_.load(); }

 private:
  std::atomic<bool> failing_{true};
  mutable std::atomic<int> key_calls_{0};
  mutable std::atomic<int> query_calls_{0};
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool released_ = false;  // guarded by mu_
};

Relation SmallCarDb() {
  CarDbSpec spec;
  spec.num_tuples = 200;
  spec.seed = 17;
  return CarDbGenerator(spec).Generate();
}

SelectionQuery ToyotaQuery() {
  return SelectionQuery({Predicate::Eq("Make", Value::Cat("Toyota"))});
}

// \p base's snapshot plus one more Toyota row: the next snapshot of its
// lineage, as a publish makes it.
std::shared_ptr<const ColumnarRelation> PublishToyota(
    const WebDatabase& base) {
  std::vector<Value> values = base.MaterializeRow(0).values();
  values[0] = Value::Cat("Toyota");
  auto next =
      ColumnarRelation::Extend(*base.columnar(), {Tuple(std::move(values))}, 1);
  EXPECT_TRUE(next.ok());
  EXPECT_EQ((*next)->lineage_uid(), base.columnar()->lineage_uid());
  return *next;
}

// Starts \p n sessions probing ToyotaQuery() against \p db through
// \p cache; results land in \p results[first, first + n).
void StartSessions(ProbeCache* cache, const WebDatabase* db, size_t first,
                   size_t n, std::vector<Result<SharedRows>>* results,
                   std::vector<std::thread>* sessions) {
  for (size_t i = first; i < first + n; ++i) {
    sessions->emplace_back([cache, db, results, i] {
      (*results)[i] = cache->ExecuteRows(*db, ToyotaQuery());
    });
  }
}

// Spins until \p done() holds, failing the test (and returning false) after
// a generous timeout so a coalescing bug cannot hang the suite.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Runs \p check on a one-stripe cache and on a striped one (ProbeCache
// splits a 2^18-entry cache into 16 stripes), so flights and extensions are
// exercised both ways.
void AtEveryStripeCount(const std::function<void(size_t)>& check) {
  for (const size_t capacity : {size_t{64}, size_t{1} << 18}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    check(capacity);
  }
}

void CheckConcurrentIdenticalProbesCostOneScan(size_t capacity) {
  GatedDb db("CarDB", SmallCarDb());
  ProbeCache cache(capacity);
  cache.EnableCoalescing(true);
  ASSERT_TRUE(cache.coalescing_enabled());

  constexpr size_t kSessions = 5;
  std::vector<Result<SharedRows>> results(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    sessions.emplace_back([&, i] {
      results[i] = cache.ExecuteRows(db, ToyotaQuery());
    });
  }

  // Leader inside the gated scan, every follower parked on its flight.
  ASSERT_TRUE(WaitFor([&] { return db.calls() == 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return cache.InFlightWaiters() == kSessions - 1; }));
  db.Release();
  for (std::thread& t : sessions) t.join();

  // One physical probe answered all five sessions, identically.
  EXPECT_EQ(db.calls(), 1);
  const auto expected = db.WebDatabase::ExecuteRows(ToyotaQuery());
  ASSERT_TRUE(expected.ok());
  EXPECT_FALSE(expected->empty());
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok()) << "session " << i;
    EXPECT_EQ(**results[i], *expected) << "session " << i;
    // Followers are handed the leader's row list, not copies of it.
    EXPECT_EQ(results[i]->get(), results[0]->get()) << "session " << i;
  }

  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kSessions);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kSessions - 1);
  EXPECT_EQ(stats.coalesced, kSessions - 1);

  // The landed answer is resident: the next probe is a plain cache hit and
  // coalescing accounting does not move.
  bool hit = false;
  auto again = cache.ExecuteRows(db, ToyotaQuery(), &hit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(again->get(), results[0]->get());
  EXPECT_EQ(db.calls(), 1);
  EXPECT_EQ(cache.stats().coalesced, kSessions - 1);
}

TEST(ProbeCoalescingTest, ConcurrentIdenticalProbesCostOneScan) {
  AtEveryStripeCount(CheckConcurrentIdenticalProbesCostOneScan);
}

void CheckLeaderErrorReachesEveryFollowerAndIsNotCached(size_t capacity) {
  GatedDb db("CarDB", SmallCarDb(), /*fail=*/true);
  ProbeCache cache(capacity);
  cache.EnableCoalescing(true);

  constexpr size_t kSessions = 4;
  std::vector<Result<SharedRows>> results(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> sessions;
  for (size_t i = 0; i < kSessions; ++i) {
    sessions.emplace_back([&, i] {
      results[i] = cache.ExecuteRows(db, ToyotaQuery());
    });
  }
  ASSERT_TRUE(WaitFor([&] { return db.calls() == 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return cache.InFlightWaiters() == kSessions - 1; }));
  db.Release();
  for (std::thread& t : sessions) t.join();

  EXPECT_EQ(db.calls(), 1);
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_FALSE(results[i].ok()) << "session " << i;
    EXPECT_EQ(results[i].status().code(), StatusCode::kUnavailable);
  }
  // Errors never land in the cache: the key is still absent.
  EXPECT_FALSE(cache.Contains(db, ToyotaQuery()));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProbeCoalescingTest, LeaderErrorReachesEveryFollowerAndIsNotCached) {
  AtEveryStripeCount(CheckLeaderErrorReachesEveryFollowerAndIsNotCached);
}

void CheckFailedNativeDeltaReachesEveryFollowerAndKeepsTheEntry(
    size_t capacity) {
  // ToyotaQuery's key is one code equality, so its extensions take the
  // key-native path; that path fails at v1 while the followers are parked.
  const WebDatabase v0("CarDB", SmallCarDb());
  FailingDeltaDb v1("CarDB", PublishToyota(v0));
  ProbeCache cache(capacity);
  cache.EnableCoalescing(true);
  auto old_rows = cache.ExecuteRows(v0, ToyotaQuery());
  ASSERT_TRUE(old_rows.ok());

  constexpr size_t kSessions = 4;
  std::vector<Result<SharedRows>> results(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> sessions;
  StartSessions(&cache, &v1, 0, kSessions, &results, &sessions);
  ASSERT_TRUE(WaitFor([&] { return v1.key_calls() == 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return cache.InFlightWaiters() == kSessions - 1; }));
  v1.Release();
  for (std::thread& t : sessions) t.join();

  // The leader's typed error reached every session; one delta evaluation
  // ran, and none took the query path.
  EXPECT_EQ(v1.key_calls(), 1);
  EXPECT_EQ(v1.query_calls(), 0);
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_FALSE(results[i].ok()) << "session " << i;
    EXPECT_EQ(results[i].status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(results[i].status().message(), "injected delta failure");
  }
  ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.extended, 1u);
  EXPECT_EQ(stats.coalesced, kSessions - 1);

  // The error was not cached and the entry kept its v0 coverage: v0 still
  // hits its own list, and the next v1 lookup extends it again.
  EXPECT_EQ(cache.size(), 1u);
  bool hit = false;
  auto older = cache.ExecuteRows(v0, ToyotaQuery(), &hit);
  ASSERT_TRUE(older.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(older->get(), old_rows->get());
  v1.Recover();
  auto newer = cache.ExecuteRows(v1, ToyotaQuery(), &hit);
  ASSERT_TRUE(newer.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(v1.key_calls(), 2);
  EXPECT_EQ(cache.stats().extended, 2u);
  const auto expected = v1.WebDatabase::ExecuteRows(ToyotaQuery());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(**newer, *expected);
  EXPECT_EQ(newer->get()->size(), old_rows->get()->size() + 1);
}

TEST(ProbeCoalescingTest,
     FailedNativeDeltaReachesEveryFollowerAndKeepsTheEntry) {
  AtEveryStripeCount(
      CheckFailedNativeDeltaReachesEveryFollowerAndKeepsTheEntry);
}

void CheckFollowersParkedAcrossVersionSwapGetLeaderAnswer(size_t capacity) {
  // Regression test for live ingest: a publish may land while probes are
  // mid-flight, and the cache keeps its entries across it. Followers parked
  // on an old-version leader must still be handed the leader's old-version
  // answer, while a session on the new version gets the new version's.
  GatedDb db("CarDB", SmallCarDb());
  ProbeCache cache(capacity);
  cache.EnableCoalescing(true);

  constexpr size_t kSessions = 4;
  std::vector<Result<SharedRows>> results(
      kSessions, Status::Internal("not run"));
  std::vector<std::thread> sessions;
  StartSessions(&cache, &db, 0, kSessions, &results, &sessions);
  ASSERT_TRUE(WaitFor([&] { return db.calls() == 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return cache.InFlightWaiters() == kSessions - 1; }));

  // A snapshot publish lands while the leader is mid-scan and the followers
  // are parked, and a session on the new version probes the same key. It
  // covers one more row, so it must not park on the old leader: it runs
  // to completion while that leader is still gated.
  const WebDatabase next("CarDB", PublishToyota(db));
  bool hit = true;
  auto newer = cache.ExecuteRows(next, ToyotaQuery(), &hit);
  ASSERT_TRUE(newer.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(**newer, *next.ExecuteRows(ToyotaQuery()));
  EXPECT_EQ(cache.InFlightWaiters(), kSessions - 1);

  db.Release();
  for (std::thread& t : sessions) t.join();

  // One physical probe; every parked follower observes the leader's
  // old-version answer, bit-identical to probing version 0 directly.
  EXPECT_EQ(db.calls(), 1);
  const auto expected = db.WebDatabase::ExecuteRows(ToyotaQuery());
  ASSERT_TRUE(expected.ok());
  ASSERT_NE(*expected, **newer);
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok()) << "session " << i;
    EXPECT_EQ(**results[i], *expected) << "session " << i;
  }
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, kSessions - 1);

  // The old-version answer that landed last did not shrink the entry: the
  // new version hits its own list, the old version is served its prefix.
  auto current = cache.ExecuteRows(next, ToyotaQuery(), &hit);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(current->get(), newer->get());
  auto older = cache.ExecuteRows(db, ToyotaQuery(), &hit);
  ASSERT_TRUE(older.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(**older, *expected);
  EXPECT_EQ(db.calls(), 1);
}

TEST(ProbeCoalescingTest, FollowersParkedAcrossVersionSwapGetLeaderAnswer) {
  AtEveryStripeCount(CheckFollowersParkedAcrossVersionSwapGetLeaderAnswer);
}

void CheckFollowersNeverShareAFlightAcrossRowCounts(size_t capacity) {
  // Two snapshots of one lineage, both gated: old-version and new-version
  // sessions miss the same key at once. Each row count gets its own leader
  // and its followers; releasing the newer leader first must answer only
  // its own followers.
  GatedDb older("CarDB", SmallCarDb());
  GatedDb newer("CarDB", PublishToyota(older));
  ProbeCache cache(capacity);
  cache.EnableCoalescing(true);

  constexpr size_t kPerVersion = 3;
  std::vector<Result<SharedRows>> results(
      2 * kPerVersion, Status::Internal("not run"));
  std::vector<std::thread> sessions;
  StartSessions(&cache, &older, 0, kPerVersion, &results, &sessions);
  StartSessions(&cache, &newer, kPerVersion, kPerVersion, &results,
                &sessions);
  ASSERT_TRUE(WaitFor([&] { return older.calls() == 1; }));
  ASSERT_TRUE(WaitFor([&] { return newer.calls() == 1; }));
  ASSERT_TRUE(WaitFor(
      [&] { return cache.InFlightWaiters() == 2 * (kPerVersion - 1); }));

  newer.Release();
  for (size_t i = kPerVersion; i < 2 * kPerVersion; ++i) {
    sessions[i].join();
  }
  // The older sessions are still parked on their own, gated leader.
  EXPECT_EQ(cache.InFlightWaiters(), kPerVersion - 1);
  older.Release();
  for (size_t i = 0; i < kPerVersion; ++i) sessions[i].join();

  const auto old_rows = older.WebDatabase::ExecuteRows(ToyotaQuery());
  const auto new_rows = newer.WebDatabase::ExecuteRows(ToyotaQuery());
  ASSERT_TRUE(old_rows.ok());
  ASSERT_TRUE(new_rows.ok());
  ASSERT_EQ(new_rows->size(), old_rows->size() + 1);
  for (size_t i = 0; i < 2 * kPerVersion; ++i) {
    ASSERT_TRUE(results[i].ok()) << "session " << i;
    EXPECT_EQ(**results[i], i < kPerVersion ? *old_rows : *new_rows)
        << "session " << i;
  }
  EXPECT_EQ(older.calls(), 1);
  EXPECT_EQ(newer.calls(), 1);
  const ProbeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.coalesced, 2 * (kPerVersion - 1));
}

TEST(ProbeCoalescingTest, FollowersNeverShareAFlightAcrossRowCounts) {
  AtEveryStripeCount(CheckFollowersNeverShareAFlightAcrossRowCounts);
}

void CheckDisabledCoalescingNeverParksSessions(size_t capacity) {
  GatedDb db("CarDB", SmallCarDb());
  db.Release();  // no gating needed; assert the steady-state accounting
  ProbeCache cache(capacity);
  ASSERT_FALSE(cache.coalescing_enabled());
  auto first = cache.ExecuteRows(db, ToyotaQuery());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.InFlightWaiters(), 0u);
  EXPECT_EQ(cache.stats().coalesced, 0u);
}

TEST(ProbeCoalescingTest, DisabledCoalescingNeverParksSessions) {
  AtEveryStripeCount(CheckDisabledCoalescingNeverParksSessions);
}

}  // namespace
}  // namespace aimq
