// Focused coverage for smaller public surfaces not exercised elsewhere:
// ValueSimilarityModel mutation API, Stopwatch, error propagation through
// SelectionQuery::Matches, and multi-cluster RockEngine answers.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "oracles/row_oracles.h"
#include "rock/rock_engine.h"
#include "similarity/value_similarity.h"
#include "util/stopwatch.h"

namespace aimq {
namespace {

// --- ValueSimilarityModel mutation API (used by persistence) ---------------

TEST(ValueSimilarityModelTest, SetValuesAndSetSimilarity) {
  ValueSimilarityModel model;
  ASSERT_TRUE(model.SetValues(0, {Value::Cat("a"), Value::Cat("b"),
                                  Value::Cat("c")})
                  .ok());
  ASSERT_TRUE(model.SetSimilarity(0, Value::Cat("a"), Value::Cat("b"), 0.7)
                  .ok());
  EXPECT_DOUBLE_EQ(model.VSim(0, Value::Cat("a"), Value::Cat("b")), 0.7);
  EXPECT_DOUBLE_EQ(model.VSim(0, Value::Cat("b"), Value::Cat("a")), 0.7);
  EXPECT_DOUBLE_EQ(model.VSim(0, Value::Cat("a"), Value::Cat("c")), 0.0);
  EXPECT_DOUBLE_EQ(model.VSim(0, Value::Cat("a"), Value::Cat("a")), 1.0);
}

TEST(ValueSimilarityModelTest, SetValuesRejectsDuplicates) {
  ValueSimilarityModel model;
  EXPECT_FALSE(model.SetValues(0, {Value::Cat("a"), Value::Cat("a")}).ok());
}

TEST(ValueSimilarityModelTest, SetSimilarityValidation) {
  ValueSimilarityModel model;
  EXPECT_FALSE(
      model.SetSimilarity(0, Value::Cat("a"), Value::Cat("b"), 0.5).ok());
  ASSERT_TRUE(model.SetValues(0, {Value::Cat("a"), Value::Cat("b")}).ok());
  EXPECT_FALSE(
      model.SetSimilarity(0, Value::Cat("a"), Value::Cat("zzz"), 0.5).ok());
  EXPECT_FALSE(
      model.SetSimilarity(0, Value::Cat("a"), Value::Cat("a"), 0.5).ok());
}

TEST(ValueSimilarityModelTest, SetValuesReplacesExistingModel) {
  ValueSimilarityModel model;
  ASSERT_TRUE(model.SetValues(0, {Value::Cat("a"), Value::Cat("b")}).ok());
  ASSERT_TRUE(
      model.SetSimilarity(0, Value::Cat("a"), Value::Cat("b"), 0.9).ok());
  ASSERT_TRUE(model.SetValues(0, {Value::Cat("x"), Value::Cat("y")}).ok());
  EXPECT_DOUBLE_EQ(model.VSim(0, Value::Cat("a"), Value::Cat("b")), 0.0);
  EXPECT_EQ(model.NumStoredPairs(), 0u);
}

TEST(ValueSimilarityModelTest, EntriesRoundTrip) {
  ValueSimilarityModel model;
  ASSERT_TRUE(model.SetValues(2, {Value::Cat("a"), Value::Cat("b"),
                                  Value::Cat("c")})
                  .ok());
  ASSERT_TRUE(model.SetSimilarity(2, Value::Cat("a"), Value::Cat("c"), 0.4)
                  .ok());
  ASSERT_TRUE(model.SetSimilarity(2, Value::Cat("b"), Value::Cat("c"), 0.2)
                  .ok());
  auto entries = model.Entries(2);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(std::get<0>(entries[0]), Value::Cat("a"));
  EXPECT_EQ(std::get<1>(entries[0]), Value::Cat("c"));
  EXPECT_DOUBLE_EQ(std::get<2>(entries[0]), 0.4);
}

// --- Stopwatch ---------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsedTimeMonotonically) {
  Stopwatch watch;
  double t1 = watch.ElapsedSeconds();
  // Burn a little CPU deterministically.
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  double t2 = watch.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  // Millis and seconds use the same clock: a later millis reading must be at
  // least as large as the earlier seconds reading.
  EXPECT_GE(watch.ElapsedMillis(), t2 * 1000.0);
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), t2 + 1.0);
}

// --- SelectionQuery error propagation ---------------------------------------

TEST(SelectionQueryErrorTest, EvaluatePropagatesPredicateErrors) {
  auto schema = Schema::Make({{"A", AttrType::kCategorical}});
  Relation r(*schema);
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("x")})).ok());
  SelectionQuery like({Predicate::Like("A", Value::Cat("x"))});
  EXPECT_FALSE(ScanEvaluate(like, r).ok());
  SelectionQuery range({Predicate("A", CompareOp::kLt, Value::Cat("x"))});
  EXPECT_FALSE(ScanEvaluate(range, r).ok());
  SelectionQuery unknown({Predicate::Eq("Nope", Value::Cat("x"))});
  EXPECT_FALSE(ScanEvaluate(unknown, r).ok());
}

// --- RockEngine with base answers spread over multiple clusters ------------

TEST(RockEngineMultiClusterTest, AnswerMergesClusters) {
  auto schema = Schema::Make({{"Kind", AttrType::kCategorical},
                              {"Tag", AttrType::kCategorical},
                              {"Flag", AttrType::kCategorical}});
  Relation r(*schema);
  auto add = [&](const char* kind, const char* tag, const char* flag,
                 int copies) {
    for (int i = 0; i < copies; ++i) {
      ASSERT_TRUE(r.Append(Tuple({Value::Cat(kind), Value::Cat(tag),
                                  Value::Cat(flag)}))
                      .ok());
    }
  };
  // Two clusters that both contain Flag=shared tuples.
  add("alpha", "a1", "shared", 8);
  add("alpha", "a2", "other", 8);
  add("beta", "b1", "shared", 8);
  add("beta", "b2", "other", 8);

  RockOptions opts;
  opts.theta = 0.4;
  opts.num_clusters = 2;
  opts.sample_size = r.NumTuples();
  auto engine = RockEngine::Build(r, opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // The base query Flag=shared matches tuples in both clusters; answers may
  // come from either, ranked by query-item similarity.
  ImpreciseQuery q;
  q.Bind("Flag", Value::Cat("shared"));
  auto answers = engine->Answer(q, 10);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_FALSE(answers->empty());
  bool saw_alpha = false, saw_beta = false;
  for (const RankedAnswer& a : *answers) {
    const std::string& kind = a.tuple.At(0).AsCat();
    saw_alpha |= (kind == "alpha");
    saw_beta |= (kind == "beta");
    // Top answers all carry the queried flag.
    EXPECT_EQ(a.tuple.At(2).AsCat(), "shared");
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_beta);
}

}  // namespace
}  // namespace aimq
