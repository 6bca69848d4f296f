// The engine's expansion memo (AimqEngine class comment): a repeated base
// row's GuidedRelax expansion is answered from the memo, and every answer
// stays bit-identical to a fresh engine's — across query shapes, thread
// counts, shard counts and storage forms, after truncated or failed
// expansions, after relevance feedback, and across a live publish.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/cardb.h"
#include "live/live_engine.h"
#include "shard/sharded_engine.h"

namespace aimq {
namespace {

// A source that fails every probe once its budget of successful probes is
// spent, and can request a cancel after a given number of probes.
class BudgetDb : public WebDatabase {
 public:
  using WebDatabase::WebDatabase;

  // Probes beyond the next \p n fail.
  void FailAfter(int64_t n) { budget_.store(n); }
  void NeverFail() { budget_.store(INT64_MAX); }
  // The \p n-th probe from now cancels \p control first.
  void CancelAfter(int64_t n, QueryControl* control) {
    cancel_in_.store(n);
    control_ = control;
  }

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    if (control_ != nullptr && cancel_in_.fetch_sub(1) == 1) {
      control_->RequestCancel();
    }
    if (budget_.fetch_sub(1) <= 0) {
      return Status::IOError("source unavailable");
    }
    return WebDatabase::ExecuteRows(query);
  }

 private:
  mutable std::atomic<int64_t> budget_{INT64_MAX};
  mutable std::atomic<int64_t> cancel_in_{-1};
  QueryControl* control_ = nullptr;
};

class ExpansionMemoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 1200;
    spec.seed = 25;
    table_ = new Relation(CarDbGenerator(spec).Generate());
    plain_ = new WebDatabase("CarDB", *table_);
    options_ = new AimqOptions();
    options_->collector.sample_size = 600;
    options_->tsim = 0.4;
    options_->top_k = 10;
    options_->probe_cache_capacity = 1 << 14;
    auto knowledge = BuildKnowledge(*plain_, *options_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete options_;
    delete plain_;
    delete table_;
    knowledge_ = nullptr;
    options_ = nullptr;
    plain_ = nullptr;
    table_ = nullptr;
  }

  static std::unique_ptr<WebDatabase> PackedSource() {
    ColumnarBuilder::Options bopts;
    bopts.store.block_size = 64;
    auto builder = ColumnarBuilder::Create(table_->schema(), bopts);
    EXPECT_TRUE(builder.ok());
    for (size_t i = 0; i < table_->NumTuples(); ++i) {
      EXPECT_TRUE((*builder)->AppendRow(table_->tuple(i)).ok());
    }
    auto snapshot = (*builder)->Finish();
    EXPECT_TRUE(snapshot.ok());
    return std::make_unique<WebDatabase>("CarDB", *snapshot);
  }

  // The fresh-engine oracle: plain, unsharded, serial, and with the probe
  // cache (and so the memo) off.
  static std::unique_ptr<AimqEngine> Reference(
      const MinedKnowledge& knowledge) {
    AimqOptions options = *options_;
    options.num_threads = 1;
    options.probe_cache_capacity = 0;
    return std::make_unique<AimqEngine>(plain_, knowledge, options);
  }

  // servebench's three query shapes: by model, model and price, by make.
  static std::vector<ImpreciseQuery> ShapeQueries() {
    std::vector<ImpreciseQuery> queries;
    for (size_t row : {3u, 177u}) {
      const Tuple& t = table_->tuple(row);
      ImpreciseQuery model;
      model.Bind("Model", t.At(CarDbGenerator::kModel));
      queries.push_back(model);
      ImpreciseQuery model_price = model;
      model_price.Bind("Price", t.At(CarDbGenerator::kPrice));
      queries.push_back(model_price);
      ImpreciseQuery make;
      make.Bind("Make", t.At(CarDbGenerator::kMake));
      queries.push_back(make);
    }
    return queries;
  }

  static void ExpectSameAnswers(const std::vector<RankedAnswer>& got,
                                const std::vector<RankedAnswer>& want,
                                const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].tuple, want[i].tuple) << where << " rank " << i;
      EXPECT_EQ(got[i].similarity, want[i].similarity)
          << where << " rank " << i;
    }
  }

  // A fresh engine's answers, computed once per query text.
  class Oracle {
   public:
    explicit Oracle(const MinedKnowledge& knowledge)
        : engine_(Reference(knowledge)) {}

    const std::vector<RankedAnswer>& Get(const ImpreciseQuery& q) {
      auto [it, inserted] = answers_.try_emplace(q.ToString());
      if (inserted) {
        auto want = engine_->Answer(q);
        EXPECT_TRUE(want.ok()) << want.status().ToString();
        if (want.ok()) it->second = want.TakeValue();
      }
      return it->second;
    }

   private:
    std::unique_ptr<AimqEngine> engine_;
    std::map<std::string, std::vector<RankedAnswer>> answers_;
  };

  // Answers \p q on \p engine and checks it against the oracle.
  static RelaxationStats AnswerMatches(AimqEngine* engine, Oracle* oracle,
                                       const ImpreciseQuery& q,
                                       const std::string& where) {
    RelaxationStats stats;
    auto got = engine->Answer(q, RelaxationStrategy::kGuided, &stats);
    EXPECT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    if (got.ok()) ExpectSameAnswers(*got, oracle->Get(q), where);
    return stats;
  }

  static Relation* table_;
  static WebDatabase* plain_;
  static AimqOptions* options_;
  static MinedKnowledge* knowledge_;
};

Relation* ExpansionMemoTest::table_ = nullptr;
WebDatabase* ExpansionMemoTest::plain_ = nullptr;
AimqOptions* ExpansionMemoTest::options_ = nullptr;
MinedKnowledge* ExpansionMemoTest::knowledge_ = nullptr;

TEST_F(ExpansionMemoTest, RepeatedQueryEqualsAFreshEngineAcrossTheMatrix) {
  Oracle oracle(*knowledge_);
  const std::unique_ptr<WebDatabase> packed = PackedSource();
  for (const bool is_packed : {false, true}) {
    const WebDatabase* source = is_packed ? packed.get() : plain_;
    for (const size_t shards : {1u, 4u}) {
      ShardedEngineOptions sharding;
      sharding.num_shards = shards;
      sharding.packed_shards = is_packed;
      auto facade = ShardedWebDatabase::Create(
          std::shared_ptr<const WebDatabase>(source,
                                             [](const WebDatabase*) {}),
          sharding);
      ASSERT_TRUE(facade.ok()) << facade.status().ToString();
      for (const size_t threads : {1u, 4u}) {
        AimqOptions options = *options_;
        options.num_threads = threads;
        AimqEngine engine(facade->get(), *knowledge_, options);
        const std::string config = std::string(is_packed ? "packed" : "plain") +
                                   " shards=" + std::to_string(shards) +
                                   " threads=" + std::to_string(threads);
        for (const ImpreciseQuery& q : ShapeQueries()) {
          const std::string where = config + " " + q.ToString();
          const RelaxationStats cold =
              AnswerMatches(&engine, &oracle, q, where + " (cold)");
          const RelaxationStats hit =
              AnswerMatches(&engine, &oracle, q, where + " (memo)");
          // The repeat reuses every expansion and replays its accounting.
          EXPECT_GT(hit.expansions.load(), 0u) << where;
          EXPECT_EQ(hit.expansions.load(), cold.expansions.load()) << where;
          EXPECT_EQ(hit.expansions_reused.load(), hit.expansions.load())
              << where;
          EXPECT_EQ(hit.tuples_relevant.load(), cold.tuples_relevant.load())
              << where;
          EXPECT_EQ(hit.max_relax_depth.load(), cold.max_relax_depth.load())
              << where;
          // Only the base set probed, and the probe cache answered it.
          EXPECT_EQ(hit.queries_issued.load(), 0u) << where;
          EXPECT_LE(hit.cache_hits.load(),
                    cold.queries_issued.load() + cold.cache_hits.load())
              << where;
        }
      }
    }
  }
}

TEST_F(ExpansionMemoTest, BoundFollowsTheProbeCacheCapacity) {
  AimqOptions options = *options_;
  options.probe_cache_capacity = 2 * AimqEngine::kMemoEntriesPerProbeEntry;
  AimqEngine engine(plain_, *knowledge_, options);
  Oracle oracle(*knowledge_);
  for (const ImpreciseQuery& q : ShapeQueries()) {
    AnswerMatches(&engine, &oracle, q, q.ToString());
    EXPECT_LE(engine.expansion_memo_size(), 2u);
  }
  EXPECT_EQ(engine.expansion_memo_size(), 2u);
}

TEST_F(ExpansionMemoTest, ZeroProbeCacheCapacityDisablesTheMemo) {
  AimqOptions options = *options_;
  options.probe_cache_capacity = 0;
  AimqEngine engine(plain_, *knowledge_, options);
  const ImpreciseQuery q = ShapeQueries()[0];
  for (int round = 0; round < 2; ++round) {
    RelaxationStats stats;
    ASSERT_TRUE(engine.Answer(q, RelaxationStrategy::kGuided, &stats).ok());
    EXPECT_GT(stats.expansions.load(), 0u);
    EXPECT_EQ(stats.expansions_reused.load(), 0u);
  }
  EXPECT_EQ(engine.expansion_memo_size(), 0u);
}

TEST_F(ExpansionMemoTest, RandomRelaxIsNeverMemoized) {
  AimqEngine engine(plain_, *knowledge_, *options_);
  AimqEngine fresh(plain_, *knowledge_, *options_);
  const ImpreciseQuery q = ShapeQueries()[0];
  for (int round = 0; round < 2; ++round) {
    RelaxationStats stats;
    auto got = engine.Answer(q, RelaxationStrategy::kRandom, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(stats.expansions_reused.load(), 0u);
    auto want = fresh.Answer(q, RelaxationStrategy::kRandom);
    ASSERT_TRUE(want.ok());
    ExpectSameAnswers(*got, *want, "random round " + std::to_string(round));
  }
  EXPECT_EQ(engine.expansion_memo_size(), 0u);
}

TEST_F(ExpansionMemoTest, TruncatedExpansionsAreNotStored) {
  BudgetDb db("CarDB", *table_);
  AimqOptions options = *options_;
  options.num_threads = 1;
  AimqEngine engine(&db, *knowledge_, options);
  Oracle oracle(*knowledge_);
  const ImpreciseQuery q = ShapeQueries()[0];

  // Cancel a few probes into the relaxation fan-out: the expansion running
  // then is cut mid-way and every later one stops before its first probe.
  QueryControl control;
  db.CancelAfter(4, &control);
  bool truncated = false;
  RelaxationStats stats;
  auto partial =
      engine.Answer(q, RelaxationStrategy::kGuided, &stats, &control,
                    &truncated);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_TRUE(truncated);
  const size_t stored = engine.expansion_memo_size();
  EXPECT_LT(stored, stats.expansions.load());

  // Only the complete expansions are reused; the cut ones run again.
  const RelaxationStats after =
      AnswerMatches(&engine, &oracle, q, "after truncation");
  EXPECT_EQ(after.expansions_reused.load(), stored);
  EXPECT_EQ(engine.expansion_memo_size(), after.expansions.load());
}

TEST_F(ExpansionMemoTest, FailedExpansionsAreNotStored) {
  BudgetDb db("CarDB", *table_);
  AimqOptions options = *options_;
  options.num_threads = 1;
  AimqEngine engine(&db, *knowledge_, options);
  Oracle oracle(*knowledge_);
  const ImpreciseQuery q = ShapeQueries()[0];

  // The base-set probe succeeds; every relaxation probe fails.
  db.FailAfter(1);
  auto failed = engine.Answer(q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(engine.expansion_memo_size(), 0u);

  db.NeverFail();
  const RelaxationStats after =
      AnswerMatches(&engine, &oracle, q, "after failure");
  EXPECT_EQ(after.expansions_reused.load(), 0u);
}

TEST_F(ExpansionMemoTest, FeedbackClearsTheMemo) {
  AimqEngine engine(plain_, *knowledge_, *options_);
  const std::vector<ImpreciseQuery> queries = ShapeQueries();
  auto answers = engine.Answer(queries[0]);
  ASSERT_TRUE(answers.ok());
  ASSERT_GE(answers->size(), 2u);
  ASSERT_GT(engine.expansion_memo_size(), 0u);

  // A contrarian user reverses the ranking.
  std::vector<JudgedAnswer> judged;
  for (size_t i = 0; i < answers->size(); ++i) {
    judged.push_back(JudgedAnswer{(*answers)[i].tuple,
                                  static_cast<int>(answers->size() - i)});
  }
  auto updated = engine.ApplyFeedback(RelevanceFeedback(),
                                      (*answers)[0].tuple, judged);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(engine.expansion_memo_size(), 0u);

  MinedKnowledge tuned = *knowledge_;
  ASSERT_TRUE(tuned.ordering.SetWimp(*updated).ok());
  Oracle oracle(tuned);
  for (const ImpreciseQuery& q : queries) {
    AnswerMatches(&engine, &oracle, q, "tuned " + q.ToString());
    AnswerMatches(&engine, &oracle, q, "tuned memo " + q.ToString());
  }
}

TEST_F(ExpansionMemoTest, PublishedVersionStartsEmptyAndMatchesAFreshEngine) {
  // The live stack starts on the first 1000 rows and publishes the rest.
  Relation initial(table_->schema());
  std::vector<Tuple> delta;
  for (size_t i = 0; i < table_->NumTuples(); ++i) {
    if (i < 1000) {
      initial.AppendUnchecked(table_->tuple(i));
    } else {
      delta.push_back(table_->tuple(i));
    }
  }
  WebDatabase initial_db("CarDB", initial);
  LiveOptions lopts;
  lopts.engine = *options_;
  auto created = LiveEngine::Create(&initial_db, *knowledge_, lopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<LiveEngine> live = created.TakeValue();
  const std::vector<ImpreciseQuery> queries = ShapeQueries();
  for (const ImpreciseQuery& q : queries) {
    ASSERT_TRUE(live->Acquire()->engine->Answer(q).ok());
  }
  ASSERT_GT(live->Acquire()->engine->expansion_memo_size(), 0u);

  ASSERT_TRUE(live->Ingest(delta).ok());
  ASSERT_TRUE(live->PublishSnapshot().ok());
  const std::shared_ptr<const ServingVersion> version = live->Acquire();
  EXPECT_EQ(version->num_rows, table_->NumTuples());
  EXPECT_EQ(version->engine->expansion_memo_size(), 0u);
  // The published rows are the fixture's table, so the oracle over it is
  // a fresh engine over the same rows.
  Oracle oracle(version->knowledge->knowledge);
  for (const ImpreciseQuery& q : queries) {
    AnswerMatches(version->engine.get(), &oracle, q,
                  "published " + q.ToString());
    const RelaxationStats hit = AnswerMatches(
        version->engine.get(), &oracle, q,
        "published memo " + q.ToString());
    EXPECT_EQ(hit.expansions_reused.load(), hit.expansions.load());
  }
}

}  // namespace
}  // namespace aimq
