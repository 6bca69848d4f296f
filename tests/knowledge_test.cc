#include "core/knowledge.h"

#include <gtest/gtest.h>

#include <numeric>

#include "datagen/cardb.h"

namespace aimq {
namespace {

Relation SmallData() {
  CarDbSpec spec;
  spec.num_tuples = 3000;
  spec.seed = 21;
  return CarDbGenerator(spec).Generate();
}

WebDatabase SmallDb() { return WebDatabase("CarDB", SmallData()); }

TEST(KnowledgeTest, BuildKnowledgeProducesAllParts) {
  WebDatabase db = SmallDb();
  AimqOptions options;
  options.collector.sample_size = 1500;
  auto k = BuildKnowledge(db, options);
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_EQ(k->sample.NumTuples(), 1500u);
  EXPECT_FALSE(k->dependencies.afds.empty());
  EXPECT_FALSE(k->dependencies.keys.empty());
  EXPECT_EQ(k->ordering.relaxation_order().size(), 7u);
  // Every categorical attribute got a similarity model.
  for (size_t attr : db.schema().CategoricalIndices()) {
    EXPECT_FALSE(k->vsim.MinedValues(attr).empty()) << attr;
  }
  // Numeric attributes don't.
  for (size_t attr : db.schema().NumericIndices()) {
    EXPECT_TRUE(k->vsim.MinedValues(attr).empty()) << attr;
  }
}

TEST(KnowledgeTest, WimpVectorMatchesOrderingAndSumsToOne) {
  WebDatabase db = SmallDb();
  AimqOptions options;
  options.collector.sample_size = 1000;
  auto k = BuildKnowledge(db, options);
  ASSERT_TRUE(k.ok());
  std::vector<double> wimp = k->WimpVector();
  ASSERT_EQ(wimp.size(), 7u);
  for (size_t a = 0; a < wimp.size(); ++a) {
    EXPECT_DOUBLE_EQ(wimp[a], k->ordering.Wimp(a));
  }
  EXPECT_NEAR(std::accumulate(wimp.begin(), wimp.end(), 0.0), 1.0, 1e-9);
}

TEST(KnowledgeTest, TimingsPopulated) {
  WebDatabase db = SmallDb();
  AimqOptions options;
  options.collector.sample_size = 1000;
  OfflineTimings timings;
  auto k = BuildKnowledge(db, options, &timings);
  ASSERT_TRUE(k.ok());
  EXPECT_GT(timings.TotalSeconds(), 0.0);
  EXPECT_GE(timings.collect_seconds, 0.0);
  EXPECT_GT(timings.dependency_mining_seconds, 0.0);
  EXPECT_GE(timings.supertuple_seconds, 0.0);
  EXPECT_GE(timings.similarity_estimation_seconds, 0.0);
}

TEST(KnowledgeTest, FromSampleSkipsCollection) {
  WebDatabase db = SmallDb();
  AimqOptions options;
  OfflineTimings timings;
  auto k = BuildKnowledgeFromSample(SmallData(), options, &timings);
  ASSERT_TRUE(k.ok());
  EXPECT_DOUBLE_EQ(timings.collect_seconds, 0.0);
  EXPECT_EQ(k->sample.NumTuples(), db.NumTuples());
  EXPECT_EQ(db.stats().queries_issued, 0u);  // the source was never probed
}

TEST(KnowledgeTest, ProbingOnlyTouchesTheBooleanInterface) {
  WebDatabase db = SmallDb();
  AimqOptions options;
  options.collector.sample_size = 1000;
  ASSERT_TRUE(BuildKnowledge(db, options).ok());
  // Probing issued one query per spanning value.
  EXPECT_GT(db.stats().queries_issued, 0u);
  EXPECT_GT(db.stats().tuples_returned, 0u);
}

TEST(KnowledgeTest, DeterministicForFixedSeeds) {
  WebDatabase db = SmallDb();
  AimqOptions options;
  options.collector.sample_size = 1200;
  auto a = BuildKnowledge(db, options);
  auto b = BuildKnowledge(db, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->sample.tuples(), b->sample.tuples());
  EXPECT_EQ(a->ordering.relaxation_order(), b->ordering.relaxation_order());
  ASSERT_EQ(a->dependencies.afds.size(), b->dependencies.afds.size());
  EXPECT_EQ(a->WimpVector(), b->WimpVector());
}

TEST(KnowledgeTest, EmptySampleFails) {
  Relation empty(CarDbGenerator::MakeSchema());
  EXPECT_FALSE(BuildKnowledgeFromSample(empty, AimqOptions{}).ok());
}

}  // namespace
}  // namespace aimq
