#include "similarity/supertuple.h"

#include <gtest/gtest.h>

#include "oracles/row_oracles.h"

namespace aimq {
namespace {

Schema CarSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical},
                       {"Price", AttrType::kNumeric}})
      .ValueOrDie();
}

Relation SmallCarDb() {
  Relation r(CarSchema());
  auto add = [&](const char* make, const char* model, double price) {
    ASSERT_TRUE(r.Append(Tuple({Value::Cat(make), Value::Cat(model),
                                Value::Num(price)}))
                    .ok());
  };
  add("Ford", "Focus", 10000);
  add("Ford", "Focus", 12000);
  add("Ford", "F150", 30000);
  add("Toyota", "Camry", 11000);
  add("Toyota", "Camry", 12000);
  add("Toyota", "Corolla", 9000);
  return r;
}

TEST(SuperTupleBuilderTest, BuildAllCoversEveryDistinctValue) {
  Relation r = SmallCarDb();
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  auto sts = builder.BuildAll(0);
  ASSERT_TRUE(sts.ok());
  ASSERT_EQ(sts->size(), 2u);  // Ford, Toyota
  EXPECT_EQ((*sts)[0].av().value, Value::Cat("Ford"));
  EXPECT_EQ((*sts)[0].support(), 3u);
  EXPECT_EQ((*sts)[1].av().value, Value::Cat("Toyota"));
  EXPECT_EQ((*sts)[1].support(), 3u);
}

TEST(SuperTupleBuilderTest, BagsCountAssociatedValues) {
  Relation r = SmallCarDb();
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  auto st = builder.Build(AVPair(0, Value::Cat("Ford")));
  ASSERT_TRUE(st.ok());
  // Model bag for Make=Ford: Focus ×2, F150 ×1.
  EXPECT_EQ(SuperTupleBag(*st, 1).Count("Focus"), 2u);
  EXPECT_EQ(SuperTupleBag(*st, 1).Count("F150"), 1u);
  EXPECT_EQ(SuperTupleBag(*st, 1).Count("Camry"), 0u);
  // The bound attribute's own bag stays empty.
  EXPECT_TRUE(SuperTupleBag(*st, 0).Empty());
}

TEST(SuperTupleBuilderTest, NumericValuesAreBinned) {
  Relation r = SmallCarDb();
  SuperTupleOptions opts;
  opts.numeric_bins = 3;  // 9000..30000 → width 7000
  SuperTupleBuilder builder(r, opts);
  // 10000 and 12000 fall in bin 0 [9000,16000); 30000 in the last bin.
  EXPECT_EQ(builder.KeywordFor(2, Value::Num(10000)),
            builder.KeywordFor(2, Value::Num(12000)));
  EXPECT_NE(builder.KeywordFor(2, Value::Num(10000)),
            builder.KeywordFor(2, Value::Num(30000)));
}

TEST(SuperTupleBuilderTest, BinLabelsShowRange) {
  Relation r = SmallCarDb();
  SuperTupleOptions opts;
  opts.numeric_bins = 3;
  SuperTupleBuilder builder(r, opts);
  EXPECT_EQ(builder.KeywordFor(2, Value::Num(9000)), "9000-16000");
}

TEST(SuperTupleBuilderTest, OutOfRangeValuesClampToEdgeBins) {
  Relation r = SmallCarDb();
  SuperTupleOptions opts;
  opts.numeric_bins = 3;
  SuperTupleBuilder builder(r, opts);
  EXPECT_EQ(builder.KeywordFor(2, Value::Num(-100)),
            builder.KeywordFor(2, Value::Num(9000)));
  EXPECT_EQ(builder.KeywordFor(2, Value::Num(1e9)),
            builder.KeywordFor(2, Value::Num(30000)));
}

TEST(SuperTupleBuilderTest, CategoricalKeywordIsValueItself) {
  Relation r = SmallCarDb();
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  EXPECT_EQ(builder.KeywordFor(1, Value::Cat("Camry")), "Camry");
  EXPECT_EQ(builder.KeywordFor(1, Value()), "");
}

TEST(SuperTupleBuilderTest, RejectsNumericAttribute) {
  Relation r = SmallCarDb();
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  EXPECT_FALSE(builder.BuildAll(2).ok());
  EXPECT_FALSE(builder.BuildAll(99).ok());
}

TEST(SuperTupleBuilderTest, UnknownValueGivesEmptySupertuple) {
  Relation r = SmallCarDb();
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  auto st = builder.Build(AVPair(0, Value::Cat("BMW")));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->support(), 0u);
  EXPECT_TRUE(SuperTupleBag(*st, 1).Empty());
}

TEST(SuperTupleBuilderTest, ConstantNumericColumnSafe) {
  Relation r(CarSchema());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(r.Append(Tuple({Value::Cat("Ford"), Value::Cat("Focus"),
                                Value::Num(5000)}))
                    .ok());
  }
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  // All identical values land in one bin; no division by zero.
  EXPECT_EQ(builder.KeywordFor(2, Value::Num(5000)),
            builder.KeywordFor(2, Value::Num(5000)));
  auto st = builder.Build(AVPair(0, Value::Cat("Ford")));
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(SuperTupleBag(*st, 2).TotalSize(), 3u);
  EXPECT_EQ(SuperTupleBag(*st, 2).DistinctSize(), 1u);
}

TEST(SuperTupleTest, ToStringListsTopKeywords) {
  Relation r = SmallCarDb();
  SuperTupleBuilder builder(r, SuperTupleOptions{});
  auto st = builder.Build(AVPair(0, Value::Cat("Ford")));
  ASSERT_TRUE(st.ok());
  std::string s = st->ToString(r.schema());
  EXPECT_NE(s.find("Make=Ford"), std::string::npos);
  EXPECT_NE(s.find("Focus:2"), std::string::npos);
}

TEST(AVPairTest, EqualityAndHash) {
  AVPair a(0, Value::Cat("Ford"));
  AVPair b(0, Value::Cat("Ford"));
  AVPair c(1, Value::Cat("Ford"));
  AVPair d(0, Value::Cat("Kia"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(AVPairHash{}(a), AVPairHash{}(b));
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(AVPairTest, ToString) {
  Schema s = CarSchema();
  EXPECT_EQ(AVPair(0, Value::Cat("Ford")).ToString(s), "Make=Ford");
  EXPECT_EQ(AVPair(2, Value::Num(100)).ToString(s), "Price=100");
}

}  // namespace
}  // namespace aimq
