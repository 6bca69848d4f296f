// End-to-end integration tests: the full AIMQ pipeline (probe → mine →
// order → similarity → answer) against generated CarDB and CensusDB sources,
// plus AIMQ-vs-ROCK comparisons on shared data.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/knowledge.h"
#include "datagen/cardb.h"
#include "datagen/censusdb.h"
#include "eval/metrics.h"
#include "eval/simulated_user.h"
#include "rock/rock_engine.h"

namespace aimq {
namespace {

class CarDbIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 20000;
    spec.seed = 7;
    generator_ = new CarDbGenerator(spec);
    data_ = new Relation(generator_->Generate());
    db_ = new WebDatabase("CarDB", *data_);
    AimqOptions options;
    options.collector.sample_size = 10000;
    options.tsim = 0.5;
    options.top_k = 10;
    auto knowledge = BuildKnowledge(*db_, options, &timings_);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    engine_ = new AimqEngine(db_, knowledge.TakeValue(), options);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
    delete data_;
    delete generator_;
    engine_ = nullptr;
    db_ = nullptr;
    data_ = nullptr;
    generator_ = nullptr;
  }

  static CarDbGenerator* generator_;
  static Relation* data_;  // the generated relation: ground truth
  static WebDatabase* db_;
  static AimqEngine* engine_;
  static OfflineTimings timings_;
};

CarDbGenerator* CarDbIntegrationTest::generator_ = nullptr;
Relation* CarDbIntegrationTest::data_ = nullptr;
WebDatabase* CarDbIntegrationTest::db_ = nullptr;
AimqEngine* CarDbIntegrationTest::engine_ = nullptr;
OfflineTimings CarDbIntegrationTest::timings_;

TEST_F(CarDbIntegrationTest, OfflinePhaseReportsTimings) {
  EXPECT_GT(timings_.TotalSeconds(), 0.0);
  EXPECT_GE(timings_.dependency_mining_seconds, 0.0);
  EXPECT_GE(timings_.similarity_estimation_seconds, 0.0);
}

TEST_F(CarDbIntegrationTest, MinesModelToMakeAfd) {
  const MinedDependencies& deps = engine_->knowledge().dependencies;
  bool found = false;
  for (const Afd& afd : deps.afds) {
    if (afd.lhs == AttrBit(CarDbGenerator::kModel) &&
        afd.rhs == CarDbGenerator::kMake) {
      found = true;
      EXPECT_LT(afd.error, 0.01);  // the generator plants Model→Make exactly
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CarDbIntegrationTest, MakeIsMostDependentAttribute) {
  // Paper Figure 3: Make has the highest dependence weight in CarDB.
  const AttributeOrdering& ordering = engine_->knowledge().ordering;
  double make_dep = ordering.WtDepends(CarDbGenerator::kMake);
  for (size_t a = 0; a < 7; ++a) {
    if (a == CarDbGenerator::kMake) continue;
    EXPECT_GE(make_dep, ordering.WtDepends(a)) << "attr " << a;
  }
}

TEST_F(CarDbIntegrationTest, PaperRunningExampleCamryQuery) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(10000));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_GE(answers->size(), 5u);
  // The top answers must all be sedans in the Camry price band — mostly
  // Camrys, possibly similar models (the paper's Accord scenario).
  size_t camrys = 0;
  for (const RankedAnswer& a : *answers) {
    if (a.tuple.At(CarDbGenerator::kModel).AsCat() == "Camry") ++camrys;
  }
  EXPECT_GE(camrys, answers->size() / 2);
}

TEST_F(CarDbIntegrationTest, LearnedSimilarityAgreesWithOracleOrdering) {
  const ValueSimilarityModel& vsim = engine_->knowledge().vsim;
  // Ford should be closer to Chevrolet than to BMW (paper Figure 5: the
  // Ford-Chevrolet edge is the strongest, the Ford-BMW edge is pruned).
  // These makes have large supports, so the estimate is stable even on this
  // reduced test database; the small-support pairs of Table 3 (Kia) are
  // exercised at full scale by bench/table3_value_similarity.
  double ford_chevy = vsim.VSim(CarDbGenerator::kMake, Value::Cat("Ford"),
                                Value::Cat("Chevrolet"));
  double ford_bmw =
      vsim.VSim(CarDbGenerator::kMake, Value::Cat("Ford"), Value::Cat("BMW"));
  EXPECT_GT(ford_chevy, ford_bmw);
  // Hyundai must rank among Kia's closest makes even at this scale.
  auto top = vsim.TopSimilar(CarDbGenerator::kMake, Value::Cat("Kia"), 5);
  bool hyundai_close = false;
  for (const auto& [value, sim] : top) {
    if (value == Value::Cat("Hyundai")) hyundai_close = true;
  }
  EXPECT_TRUE(hyundai_close);
}

TEST_F(CarDbIntegrationTest, AdjacentYearsMoreSimilarThanDistant) {
  const ValueSimilarityModel& vsim = engine_->knowledge().vsim;
  double y_95_96 = vsim.VSim(CarDbGenerator::kYear, Value::Cat("1995"),
                             Value::Cat("1996"));
  double y_95_05 = vsim.VSim(CarDbGenerator::kYear, Value::Cat("1995"),
                             Value::Cat("2005"));
  EXPECT_GT(y_95_96, y_95_05);
}

TEST_F(CarDbIntegrationTest, SimulatedUserStudyPrefersGuidedOverRandom) {
  const Relation& hidden = *data_;
  SimulatedUserOptions uopts;
  uopts.noise_stddev = 0.0;
  SimulatedUser user(
      [&](const Tuple& a, const Tuple& b) {
        return generator_->TupleSimilarity(a, b);
      },
      uopts);
  std::vector<double> guided_mrr, random_mrr;
  for (size_t i = 0; i < 6; ++i) {
    Tuple query_tuple = hidden.tuple(500 + i * 91);
    auto guided = engine_->FindSimilar(query_tuple, 10, 0.4,
                                       RelaxationStrategy::kGuided);
    auto random = engine_->FindSimilar(query_tuple, 10, 0.4,
                                       RelaxationStrategy::kRandom);
    ASSERT_TRUE(guided.ok() && random.ok());
    guided_mrr.push_back(PaperMrr(user.RankAnswers(query_tuple, *guided)));
    random_mrr.push_back(PaperMrr(user.RankAnswers(query_tuple, *random)));
  }
  // Figure 8 shape: guided relaxation at least matches random relaxation.
  EXPECT_GE(Mean(guided_mrr), Mean(random_mrr) - 0.05);
}

TEST(CensusIntegrationTest, ClassAgreementAboveBaseRate) {
  CensusDbSpec spec;
  spec.num_tuples = 6000;
  spec.seed = 12;
  CensusDbGenerator generator(spec);
  CensusDataset data = generator.Generate();
  WebDatabase db("CensusDB", data.relation);

  AimqOptions options;
  options.collector.sample_size = 3000;
  options.tane.max_lhs_size = 2;
  options.tane.max_key_size = 3;
  options.tsim = 0.4;
  options.top_k = 10;
  auto knowledge = BuildKnowledge(db, options);
  ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
  AimqEngine engine(&db, knowledge.TakeValue(), options);

  // Label lookup for answers.
  std::unordered_map<Tuple, int, TupleHash> label_of;
  for (size_t i = 0; i < data.relation.NumTuples(); ++i) {
    label_of.emplace(data.relation.tuple(i), data.labels[i]);
  }

  // Query with a handful of tuples; top-10 answers should agree with the
  // query's class more often than the positive base rate would suggest.
  std::vector<double> accs;
  for (size_t i = 0; i < 8; ++i) {
    size_t row = 100 + i * 301;
    Tuple query_tuple = data.relation.tuple(row);
    auto answers =
        engine.FindSimilar(query_tuple, 10, 0.4, RelaxationStrategy::kGuided);
    ASSERT_TRUE(answers.ok());
    if (answers->empty()) continue;
    std::vector<int> labels;
    for (const RankedAnswer& a : *answers) {
      auto it = label_of.find(a.tuple);
      ASSERT_NE(it, label_of.end());
      labels.push_back(it->second);
    }
    accs.push_back(TopKClassAccuracy(labels, data.labels[row],
                                     labels.size()));
  }
  ASSERT_GE(accs.size(), 4u);
  EXPECT_GT(Mean(accs), 0.5);
}

TEST(AimqVsRockIntegrationTest, BothAnswerTheSameQuery) {
  CarDbSpec spec;
  spec.num_tuples = 4000;
  spec.seed = 31;
  CarDbGenerator generator(spec);
  Relation data = generator.Generate();
  WebDatabase db("CarDB", data);

  AimqOptions aopts;
  aopts.collector.sample_size = 2000;
  auto knowledge = BuildKnowledge(db, aopts);
  ASSERT_TRUE(knowledge.ok());
  AimqEngine aimq_engine(&db, knowledge.TakeValue(), aopts);

  RockOptions ropts;
  ropts.sample_size = 800;
  ropts.num_clusters = 15;
  ropts.theta = 0.5;
  auto rock_engine = RockEngine::Build(data, ropts);
  ASSERT_TRUE(rock_engine.ok()) << rock_engine.status().ToString();

  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Accord"));
  auto aimq_answers = aimq_engine.Answer(q);
  auto rock_answers = rock_engine->Answer(q, 10);
  ASSERT_TRUE(aimq_answers.ok()) << aimq_answers.status().ToString();
  ASSERT_TRUE(rock_answers.ok()) << rock_answers.status().ToString();
  EXPECT_FALSE(aimq_answers->empty());
  EXPECT_FALSE(rock_answers->empty());
}

}  // namespace
}  // namespace aimq
