#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datagen/cardb.h"

namespace aimq {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CarDbSpec spec;
    spec.num_tuples = 4000;
    spec.seed = 13;
    data_ = new Relation(CarDbGenerator(spec).Generate());
    db_ = new WebDatabase("CarDB", *data_);
    AimqOptions options;
    options.collector.sample_size = 2000;
    auto knowledge = BuildKnowledge(*db_, options);
    ASSERT_TRUE(knowledge.ok());
    engine_ = new AimqEngine(db_, knowledge.TakeValue(), options);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
    delete data_;
    engine_ = nullptr;
    db_ = nullptr;
    data_ = nullptr;
  }

  static Relation* data_;  // the generated relation: ground truth
  static WebDatabase* db_;
  static AimqEngine* engine_;
};

Relation* ExplainTest::data_ = nullptr;
WebDatabase* ExplainTest::db_ = nullptr;
AimqEngine* ExplainTest::engine_ = nullptr;

TEST_F(ExplainTest, ContributionsSumToReportedSimilarity) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(9000));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  for (const RankedAnswer& a : *answers) {
    auto explanation = engine_->Explain(q, a.tuple);
    ASSERT_TRUE(explanation.ok());
    EXPECT_NEAR(explanation->total, a.similarity, 1e-9);
  }
}

TEST_F(ExplainTest, OneContributionPerBoundAttribute) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Price", Value::Num(9000));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  auto explanation = engine_->Explain(q, (*answers)[0].tuple);
  ASSERT_TRUE(explanation.ok());
  ASSERT_EQ(explanation->contributions.size(), 2u);
  double weight_sum = 0.0;
  for (const AttributeContribution& c : explanation->contributions) {
    EXPECT_GE(c.similarity, 0.0);
    EXPECT_LE(c.similarity, 1.0);
    EXPECT_NEAR(c.contribution, c.weight * c.similarity, 1e-12);
    weight_sum += c.weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

TEST_F(ExplainTest, ExactMatchFlagged) {
  ImpreciseQuery q;
  q.Bind("Make", Value::Cat("Toyota"));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  // The top answer of a Make-only query is a Toyota.
  auto explanation = engine_->Explain(q, (*answers)[0].tuple);
  ASSERT_TRUE(explanation.ok());
  ASSERT_EQ(explanation->contributions.size(), 1u);
  EXPECT_TRUE(explanation->contributions[0].exact_match);
  EXPECT_DOUBLE_EQ(explanation->contributions[0].similarity, 1.0);
}

TEST_F(ExplainTest, SortedByWeightDescending) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  q.Bind("Color", Value::Cat("Red"));
  q.Bind("Price", Value::Num(9000));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  auto explanation = engine_->Explain(q, (*answers)[0].tuple);
  ASSERT_TRUE(explanation.ok());
  for (size_t i = 1; i < explanation->contributions.size(); ++i) {
    EXPECT_GE(explanation->contributions[i - 1].weight,
              explanation->contributions[i].weight);
  }
}

TEST_F(ExplainTest, ToStringMentionsAttributesAndValues) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  auto answers = engine_->Answer(q);
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
  auto explanation = engine_->Explain(q, (*answers)[0].tuple);
  ASSERT_TRUE(explanation.ok());
  std::string s = explanation->ToString();
  EXPECT_NE(s.find("Model"), std::string::npos);
  EXPECT_NE(s.find("Camry"), std::string::npos);
  EXPECT_NE(s.find("Sim(Q, t)"), std::string::npos);
}

TEST_F(ExplainTest, RejectsArityMismatch) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  EXPECT_FALSE(engine_->Explain(q, Tuple({Value::Cat("x")})).ok());
}

TEST_F(ExplainTest, UnknownAttributeErrors) {
  ImpreciseQuery q;
  q.Bind("Bogus", Value::Cat("x"));
  Tuple t = data_->tuple(0);
  EXPECT_FALSE(engine_->Explain(q, t).ok());
}

}  // namespace
}  // namespace aimq
