// Cooperative cancellation and deadlines in the query engine, plus the
// phase-timer flush regression: RelaxationStats phase timers must be
// finalized on *every* exit path (cancelled, deadlined, error), not only on
// the happy path.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "core/control.h"
#include "core/engine.h"
#include "datagen/cardb.h"
#include "util/stopwatch.h"

namespace aimq {
namespace {

// A source whose every probe costs real wall-clock time, like an autonomous
// Web database does. Makes deadline windows deterministic to hit.
class SlowDb : public WebDatabase {
 public:
  SlowDb(std::string name, Relation data, std::chrono::milliseconds delay)
      : WebDatabase(std::move(name), std::move(data)), delay_(delay) {}

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    std::this_thread::sleep_for(delay_);
    return WebDatabase::ExecuteRows(query);
  }

 private:
  std::chrono::milliseconds delay_;
};

class EngineCancelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 600;
    spec.seed = 11;
    Relation data = CarDbGenerator(spec).Generate();
    fast_db_ = new WebDatabase("CarDB", data);
    slow_db_ = new SlowDb("CarDB", std::move(data),
                          std::chrono::milliseconds(5));
    options_ = new AimqOptions();
    options_->collector.sample_size = 300;
    options_->tsim = 0.4;
    options_->top_k = 10;
    // Mine against the fast copy; the knowledge transfers (same relation).
    auto knowledge = BuildKnowledge(*fast_db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete slow_db_;
    delete fast_db_;
    knowledge_ = nullptr;
    options_ = nullptr;
    slow_db_ = nullptr;
    fast_db_ = nullptr;
  }

  // An engine over the slow source whose full (uncancelled) run takes many
  // hundreds of milliseconds: plenty of room for a deadline to land inside
  // the relaxation fan-out.
  static std::unique_ptr<AimqEngine> MakeSlowEngine() {
    AimqOptions options = *options_;
    options.num_threads = 1;
    options.probe_cache_capacity = 0;  // every probe pays the delay
    options.relax_stop_after = 0;      // walk the full relaxation sequence
    options.base_set_limit = 8;
    return std::make_unique<AimqEngine>(slow_db_, *knowledge_, options);
  }

  static ImpreciseQuery CamryQuery() {
    ImpreciseQuery q;
    q.Bind("Model", Value::Cat("Camry"));
    return q;
  }

  static WebDatabase* fast_db_;
  static SlowDb* slow_db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

WebDatabase* EngineCancelTest::fast_db_ = nullptr;
SlowDb* EngineCancelTest::slow_db_ = nullptr;
AimqOptions* EngineCancelTest::options_ = nullptr;
MinedKnowledge* EngineCancelTest::knowledge_ = nullptr;

TEST_F(EngineCancelTest, PreCancelledAnswerAbortsWithTypedStatus) {
  auto engine = MakeSlowEngine();
  QueryControl control;
  control.RequestCancel();
  RelaxationStats stats;
  bool truncated = true;
  auto r = engine->Answer(CamryQuery(), RelaxationStrategy::kGuided, &stats,
                          &control, &truncated);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(truncated);  // nothing partial was produced
  // Regression: the base-set phase timer must be flushed even though the
  // phase aborted. Before the fix it stayed exactly 0.0.
  EXPECT_GT(stats.base_set_seconds, 0.0);
  EXPECT_EQ(stats.queries_issued.load(), 0u);
}

TEST_F(EngineCancelTest, DeadlineDuringBaseSetDerivationFlushesTimer) {
  auto engine = MakeSlowEngine();
  // Base query Model=Camry AND Price=10001 is empty, so derivation enters
  // the footnote-2 generalization loop — where the expired deadline is
  // noticed after the first 5ms probe.
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(10001));
  QueryControl control;
  control.SetDeadlineAfterMillis(2);
  RelaxationStats stats;
  auto r = engine->Answer(q, RelaxationStrategy::kGuided, &stats, &control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // Regression: the aborted phase still accounts its elapsed time.
  EXPECT_GT(stats.base_set_seconds, 0.0);
}

TEST_F(EngineCancelTest, DeadlineMidRelaxationReturnsTruncatedPartialTopK) {
  auto engine = MakeSlowEngine();
  QueryControl control;
  control.SetDeadlineAfterMillis(60);
  RelaxationStats stats;
  bool truncated = false;
  auto r = engine->Answer(CamryQuery(), RelaxationStrategy::kGuided, &stats,
                          &control, &truncated);
  // The base query is non-empty (fast), so the deadline lands inside the
  // relaxation fan-out: a *partial* top-k comes back flagged truncated.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(truncated);
  // Base-set tuples match Q exactly, so the partial answer is non-empty.
  EXPECT_GT(r->size(), 0u);
  // Regression: relaxation and ranking phase timers flushed despite the stop.
  EXPECT_GT(stats.relax_seconds, 0.0);
  EXPECT_GE(stats.rank_seconds, 0.0);
}

TEST_F(EngineCancelTest, CancelFromAnotherThreadStopsInFlightQuery) {
  auto engine = MakeSlowEngine();
  QueryControl control;
  Stopwatch watch;
  std::thread canceller([&control] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    control.RequestCancel();
  });
  bool truncated = false;
  auto r = engine->Answer(CamryQuery(), RelaxationStrategy::kGuided, nullptr,
                          &control, &truncated);
  canceller.join();
  // The full slow run takes multiple seconds; cancellation must cut it to
  // roughly the cancel point plus one in-flight probe.
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  if (r.ok()) {
    EXPECT_TRUE(truncated);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  }
}

TEST_F(EngineCancelTest, ControlWithGenerousDeadlineChangesNothing) {
  // A control that never fires must leave answers bit-identical.
  AimqOptions options = *options_;
  options.num_threads = 4;
  AimqEngine baseline(fast_db_, *knowledge_, options);
  AimqEngine controlled(fast_db_, *knowledge_, options);
  QueryControl control;
  control.SetDeadlineAfterMillis(600000);
  bool truncated = true;
  auto a = baseline.Answer(CamryQuery());
  auto b = controlled.Answer(CamryQuery(), RelaxationStrategy::kGuided,
                             nullptr, &control, &truncated);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].tuple, (*b)[i].tuple);
    EXPECT_EQ((*a)[i].similarity, (*b)[i].similarity);
  }
}

TEST_F(EngineCancelTest, FindSimilarStopsAtCancel) {
  auto engine = MakeSlowEngine();
  const Relation& hidden = slow_db_->hidden_relation_for_testing();
  QueryControl control;
  control.RequestCancel();
  auto r = engine->FindSimilar(hidden.tuple(3), 10, 0.5,
                               RelaxationStrategy::kGuided, nullptr, &control);
  // Progressive protocol: a stopped descent returns what it has (nothing).
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->empty());
}

TEST_F(EngineCancelTest, DeriveBaseSetHonoursControl) {
  auto engine = MakeSlowEngine();
  QueryControl control;
  control.RequestCancel();
  RelaxationStats stats;
  auto r = engine->DeriveBaseSet(CamryQuery(), &stats, &control);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.queries_issued.load(), 0u);
}

}  // namespace
}  // namespace aimq
