// Determinism and thread-safety of the parallel relaxation engine: ranked
// answers must be bit-identical at any thread count, concurrent sessions
// must agree with serial ones, and probe deduplication must be observable.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "datagen/cardb.h"
#include "util/parallel.h"

namespace aimq {
namespace {

class EngineParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 5000;
    spec.seed = 7;
    data_ = new Relation(CarDbGenerator(spec).Generate());
    db_ = new WebDatabase("CarDB", *data_);
    options_ = new AimqOptions();
    options_->collector.sample_size = 2500;
    options_->tsim = 0.4;
    options_->top_k = 10;
    auto knowledge = BuildKnowledge(*db_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete db_;
    delete data_;
    knowledge_ = nullptr;
    options_ = nullptr;
    db_ = nullptr;
    data_ = nullptr;
  }

  static std::unique_ptr<AimqEngine> MakeEngine(size_t num_threads,
                                                size_t probe_cache_capacity) {
    AimqOptions options = *options_;
    options.num_threads = num_threads;
    options.probe_cache_capacity = probe_cache_capacity;
    return std::make_unique<AimqEngine>(db_, *knowledge_, options);
  }

  static std::vector<ImpreciseQuery> TestQueries() {
    std::vector<ImpreciseQuery> queries;
    ImpreciseQuery q1;
    q1.Bind("Model", Value::Cat("Camry"));
    queries.push_back(q1);
    ImpreciseQuery q2;
    q2.Bind("Model", Value::Cat("Civic"));
    q2.Bind("Price", Value::Num(9000));
    queries.push_back(q2);
    ImpreciseQuery q3;
    q3.Bind("Make", Value::Cat("Ford"));
    q3.Bind("Mileage", Value::Num(60000));
    queries.push_back(q3);
    return queries;
  }

  static void ExpectSameAnswers(const std::vector<RankedAnswer>& a,
                                const std::vector<RankedAnswer>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].tuple, b[i].tuple) << "rank " << i;
      // Bit-identical, not approximately equal: the parallel merge must not
      // reorder any floating-point accumulation.
      EXPECT_EQ(a[i].similarity, b[i].similarity) << "rank " << i;
    }
  }

  static Relation* data_;  // the generated relation: ground truth
  static WebDatabase* db_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

Relation* EngineParallelTest::data_ = nullptr;
WebDatabase* EngineParallelTest::db_ = nullptr;
AimqOptions* EngineParallelTest::options_ = nullptr;
MinedKnowledge* EngineParallelTest::knowledge_ = nullptr;

TEST_F(EngineParallelTest, AnswerIdenticalAcrossThreadCounts) {
  for (RelaxationStrategy strategy :
       {RelaxationStrategy::kGuided, RelaxationStrategy::kRandom}) {
    auto reference = MakeEngine(1, 1024);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      auto engine = MakeEngine(threads, 1024);
      for (const ImpreciseQuery& q : TestQueries()) {
        auto serial = reference->Answer(q, strategy);
        auto parallel = engine->Answer(q, strategy);
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        ExpectSameAnswers(*serial, *parallel);
      }
    }
  }
}

TEST_F(EngineParallelTest, AnswerIdenticalWithAndWithoutProbeCache) {
  // The cache is pure memoization: enabling it must not change any answer.
  auto cached = MakeEngine(4, 1024);
  auto uncached = MakeEngine(4, 0);
  for (const ImpreciseQuery& q : TestQueries()) {
    auto a = cached->Answer(q);
    auto b = uncached->Answer(q);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameAnswers(*a, *b);
  }
}

TEST_F(EngineParallelTest, SetNumThreadsRetunesExistingEngine) {
  auto engine = MakeEngine(1, 1024);
  ImpreciseQuery q = TestQueries()[0];
  auto serial = engine->Answer(q);
  ASSERT_TRUE(serial.ok());
  engine->SetNumThreads(8);
  auto parallel = engine->Answer(q);
  ASSERT_TRUE(parallel.ok());
  ExpectSameAnswers(*serial, *parallel);
}

TEST_F(EngineParallelTest, RelaxationProbesAreDedupedAcrossBaseTuples) {
  // Base tuples of one model share deep relaxations, so a multi-tuple base
  // set must fold duplicate probes — with the shared cache and without it.
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  for (size_t cache_capacity : {size_t{4096}, size_t{0}}) {
    AimqOptions options = *options_;
    options.num_threads = 4;
    options.probe_cache_capacity = cache_capacity;
    // Walk each base tuple's full relaxation sequence so the deep (mostly
    // unbound) queries that base tuples share are actually generated.
    options.relax_stop_after = 0;
    AimqEngine engine(db_, *knowledge_, options);
    RelaxationStats stats;
    ASSERT_TRUE(engine.Answer(q, RelaxationStrategy::kGuided, &stats).ok());
    EXPECT_GT(stats.deduped_probes, 0u) << "cache=" << cache_capacity;
    if (cache_capacity > 0) {
      EXPECT_GT(stats.cache_hits, 0u);
    } else {
      EXPECT_EQ(stats.cache_hits, 0u);
    }
  }
}

TEST_F(EngineParallelTest, DeriveBaseSetMatchesAcrossThreadCounts) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(10001));  // forces footnote-2 generalization
  auto serial = MakeEngine(1, 1024);
  auto parallel = MakeEngine(8, 1024);
  auto a = serial->DeriveBaseSet(q);
  auto b = parallel->DeriveBaseSet(q);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i], (*b)[i]);
  }
}

TEST_F(EngineParallelTest, SharedProbeCacheDedupesAcrossEngines) {
  auto cache = std::make_shared<ProbeCache>(4096);
  auto first = MakeEngine(1, 0);
  auto second = MakeEngine(1, 0);
  first->SetProbeCache(cache);
  second->SetProbeCache(cache);

  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Corolla"));
  RelaxationStats warmup, warm;
  ASSERT_TRUE(first->Answer(q, RelaxationStrategy::kGuided, &warmup).ok());
  ASSERT_TRUE(second->Answer(q, RelaxationStrategy::kGuided, &warm).ok());
  // The second engine's probes are all served by the first engine's cache.
  EXPECT_EQ(warm.queries_issued, 0u);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_hits, warmup.queries_issued + warmup.cache_hits);
}

TEST_F(EngineParallelTest, ConcurrentFindSimilarMatchesSerial) {
  auto engine = MakeEngine(1, 4096);
  const Relation& hidden = *data_;
  std::vector<size_t> anchors{11, 222, 1333, 2444, 3555, 4666};

  for (RelaxationStrategy strategy :
       {RelaxationStrategy::kGuided, RelaxationStrategy::kRandom}) {
    std::vector<std::vector<RankedAnswer>> serial(anchors.size());
    for (size_t i = 0; i < anchors.size(); ++i) {
      auto r = engine->FindSimilar(hidden.tuple(anchors[i]), 10, 0.5,
                                   strategy);
      ASSERT_TRUE(r.ok());
      serial[i] = r.TakeValue();
    }
    std::vector<std::vector<RankedAnswer>> concurrent(anchors.size());
    std::atomic<int> failures{0};
    ParallelFor(anchors.size(), 8, [&](size_t i) {
      auto r = engine->FindSimilar(hidden.tuple(anchors[i]), 10, 0.5,
                                   strategy);
      if (!r.ok()) {
        ++failures;
        return;
      }
      concurrent[i] = r.TakeValue();
    });
    ASSERT_EQ(failures.load(), 0);
    for (size_t i = 0; i < anchors.size(); ++i) {
      ExpectSameAnswers(serial[i], concurrent[i]);
    }
  }
}

TEST_F(EngineParallelTest, PhaseTimersAccumulate) {
  auto engine = MakeEngine(2, 1024);
  ImpreciseQuery q = TestQueries()[1];
  RelaxationStats stats;
  ASSERT_TRUE(engine->Answer(q, RelaxationStrategy::kGuided, &stats).ok());
  EXPECT_GE(stats.base_set_seconds, 0.0);
  EXPECT_GT(stats.relax_seconds, 0.0);
  EXPECT_GE(stats.rank_seconds, 0.0);
}

}  // namespace
}  // namespace aimq
