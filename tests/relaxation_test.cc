#include "core/relaxation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "oracles/row_oracles.h"

namespace aimq {
namespace {

Schema CarSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical},
                       {"Price", AttrType::kNumeric}})
      .ValueOrDie();
}

Tuple FullTuple() {
  return Tuple({Value::Cat("Ford"), Value::Cat("Focus"), Value::Num(9000)});
}

TEST(RelaxTupleQueryTest, DropsRequestedAttributes) {
  Schema s = CarSchema();
  SelectionQuery q = RelaxTupleQuery(s, FullTuple(), {1});
  EXPECT_EQ(q.NumPredicates(), 2u);
  EXPECT_TRUE(q.Binds("Make"));
  EXPECT_FALSE(q.Binds("Model"));
  EXPECT_TRUE(q.Binds("Price"));
}

TEST(RelaxTupleQueryTest, EmptyRelaxSetIsFullyBound) {
  Schema s = CarSchema();
  SelectionQuery q = RelaxTupleQuery(s, FullTuple(), {});
  EXPECT_EQ(q.NumPredicates(), 3u);
}

TEST(RelaxTupleQueryTest, NullAttributesNeverBound) {
  Schema s = CarSchema();
  Tuple t({Value::Cat("Ford"), Value(), Value::Num(9000)});
  SelectionQuery q = RelaxTupleQuery(s, t, {});
  EXPECT_EQ(q.NumPredicates(), 2u);
  EXPECT_FALSE(q.Binds("Model"));
}

TEST(RelaxTupleQueryTest, AllAttributesRelaxedGivesEmptyQuery) {
  Schema s = CarSchema();
  SelectionQuery q = RelaxTupleQuery(s, FullTuple(), {0, 1, 2});
  EXPECT_TRUE(q.Empty());
}

TEST(TupleRelaxerTest, FollowsSingleOrderThenPairs) {
  Schema s = CarSchema();
  TupleRelaxer relaxer(s, FullTuple(), {2, 0, 1}, 2);
  std::vector<size_t> relaxed;

  ASSERT_TRUE(relaxer.HasNext());
  SelectionQuery q1 = relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{2}));
  EXPECT_FALSE(q1.Binds("Price"));
  EXPECT_EQ(q1.NumPredicates(), 2u);

  SelectionQuery q2 = relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{0}));

  SelectionQuery q3 = relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{1}));

  SelectionQuery q4 = relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{2, 0}));
  EXPECT_EQ(q4.NumPredicates(), 1u);
  EXPECT_TRUE(q4.Binds("Model"));

  relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{2, 1}));
  relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(relaxer.HasNext());
}

TEST(TupleRelaxerTest, MaxRelaxZeroMeansAllButOne) {
  Schema s = CarSchema();
  TupleRelaxer relaxer(s, FullTuple(), {0, 1, 2}, 0);
  size_t count = 0;
  size_t max_relaxed = 0;
  std::vector<size_t> relaxed;
  while (relaxer.HasNext()) {
    relaxer.Next(&relaxed);
    max_relaxed = std::max(max_relaxed, relaxed.size());
    ++count;
  }
  // C(3,1) + C(3,2) = 6; never all three at once.
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(max_relaxed, 2u);
}

TEST(RelaxTupleQueryTest, NumericBandProducesRangePredicates) {
  Schema s = CarSchema();
  SelectionQuery q = RelaxTupleQuery(s, FullTuple(), {}, 0.10);
  // Make/Model stay equality; Price 9000 becomes [8100, 9900].
  EXPECT_EQ(q.NumPredicates(), 4u);
  bool saw_ge = false, saw_le = false;
  for (const Predicate& p : q.predicates()) {
    if (p.attribute != "Price") {
      EXPECT_EQ(p.op, CompareOp::kEq);
      continue;
    }
    if (p.op == CompareOp::kGe) {
      saw_ge = true;
      EXPECT_DOUBLE_EQ(p.value.AsNum(), 8100.0);
    }
    if (p.op == CompareOp::kLe) {
      saw_le = true;
      EXPECT_DOUBLE_EQ(p.value.AsNum(), 9900.0);
    }
  }
  EXPECT_TRUE(saw_ge);
  EXPECT_TRUE(saw_le);
}

TEST(RelaxTupleQueryTest, BandedQueryMatchesNearbyNumerics) {
  Schema s = CarSchema();
  SelectionQuery q = RelaxTupleQuery(s, FullTuple(), {}, 0.10);
  Tuple near({Value::Cat("Ford"), Value::Cat("Focus"), Value::Num(9500)});
  Tuple far({Value::Cat("Ford"), Value::Cat("Focus"), Value::Num(12000)});
  EXPECT_TRUE(*q.Matches(s, near));
  EXPECT_FALSE(*q.Matches(s, far));
}

TEST(RelaxTupleQueryTest, RelaxedNumericAttributeDropsBandToo) {
  Schema s = CarSchema();
  SelectionQuery q = RelaxTupleQuery(s, FullTuple(), {2}, 0.10);
  EXPECT_EQ(q.NumPredicates(), 2u);
  EXPECT_FALSE(q.Binds("Price"));
}

TEST(TupleRelaxerTest, ProgressiveModeYieldsCumulativePrefixes) {
  Schema s = CarSchema();
  TupleRelaxer relaxer(s, FullTuple(), {2, 0, 1}, 0, 0.0,
                       RelaxationMode::kProgressive);
  std::vector<size_t> relaxed;

  ASSERT_TRUE(relaxer.HasNext());
  SelectionQuery q1 = relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{2}));
  EXPECT_EQ(q1.NumPredicates(), 2u);

  SelectionQuery q2 = relaxer.Next(&relaxed);
  EXPECT_EQ(relaxed, (std::vector<size_t>{2, 0}));
  EXPECT_EQ(q2.NumPredicates(), 1u);
  EXPECT_TRUE(q2.Binds("Model"));

  // Never relaxes everything: the last bound attribute stays.
  EXPECT_FALSE(relaxer.HasNext());
}

TEST(TupleRelaxerTest, ProgressiveRespectsMaxRelaxAttrs) {
  Schema s = CarSchema();
  TupleRelaxer relaxer(s, FullTuple(), {0, 1, 2}, 1, 0.0,
                       RelaxationMode::kProgressive);
  size_t steps = 0;
  while (relaxer.HasNext()) {
    relaxer.Next();
    ++steps;
  }
  EXPECT_EQ(steps, 1u);
}

TEST(TupleRelaxerTest, ProgressiveAnswerSetsAreMonotone) {
  // Each progressive step strictly weakens the query, so any tuple matching
  // step k also matches step k+1.
  Schema s = CarSchema();
  Relation r(s);
  Rng rng(3);
  const char* makes[] = {"Ford", "Kia"};
  const char* models[] = {"Focus", "Rio", "F-150"};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(r.Append(Tuple({Value::Cat(makes[rng.Uniform(2)]),
                                Value::Cat(models[rng.Uniform(3)]),
                                Value::Num(1000 * (1 + rng.Uniform(9)))}))
                    .ok());
  }
  TupleRelaxer relaxer(s, r.tuple(0), {0, 2, 1}, 0, 0.1,
                       RelaxationMode::kProgressive);
  std::vector<size_t> prev;
  while (relaxer.HasNext()) {
    auto rows = ScanEvaluate(relaxer.Next(), r);
    ASSERT_TRUE(rows.ok());
    for (size_t row : prev) {
      EXPECT_NE(std::find(rows->begin(), rows->end(), row), rows->end());
    }
    prev = *rows;
  }
}

TEST(StrategyOrderTest, GuidedKeepsMinedOrder) {
  Rng rng(1);
  std::vector<size_t> mined{3, 1, 2, 0};
  EXPECT_EQ(StrategyOrder(RelaxationStrategy::kGuided, mined, &rng), mined);
}

TEST(StrategyOrderTest, RandomIsPermutationOfMined) {
  Rng rng(1);
  std::vector<size_t> mined{0, 1, 2, 3, 4, 5, 6, 7};
  auto shuffled = StrategyOrder(RelaxationStrategy::kRandom, mined, &rng);
  EXPECT_EQ(std::set<size_t>(shuffled.begin(), shuffled.end()),
            std::set<size_t>(mined.begin(), mined.end()));
  // With 8 elements a shuffle is near-certainly not the identity.
  EXPECT_NE(shuffled, mined);
}

TEST(StrategyOrderTest, RandomIsDeterministicPerRngState) {
  Rng rng1(7), rng2(7);
  std::vector<size_t> mined{0, 1, 2, 3, 4};
  EXPECT_EQ(StrategyOrder(RelaxationStrategy::kRandom, mined, &rng1),
            StrategyOrder(RelaxationStrategy::kRandom, mined, &rng2));
}

TEST(StrategyNameTest, Names) {
  EXPECT_STREQ(RelaxationStrategyName(RelaxationStrategy::kGuided),
               "GuidedRelax");
  EXPECT_STREQ(RelaxationStrategyName(RelaxationStrategy::kRandom),
               "RandomRelax");
}

}  // namespace
}  // namespace aimq
