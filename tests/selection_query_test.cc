#include "query/selection_query.h"

#include <gtest/gtest.h>

#include "oracles/row_oracles.h"

namespace aimq {
namespace {

Schema TestSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Model", AttrType::kCategorical},
                       {"Price", AttrType::kNumeric}})
      .ValueOrDie();
}

Tuple Row(const std::string& make, const std::string& model, double price) {
  return Tuple({Value::Cat(make), Value::Cat(model), Value::Num(price)});
}

Relation TestRelation() {
  Relation r(TestSchema());
  EXPECT_TRUE(r.Append(Row("Toyota", "Camry", 10000)).ok());
  EXPECT_TRUE(r.Append(Row("Toyota", "Corolla", 8000)).ok());
  EXPECT_TRUE(r.Append(Row("Honda", "Accord", 10000)).ok());
  EXPECT_TRUE(r.Append(Row("Honda", "Civic", 7000)).ok());
  return r;
}

TEST(SelectionQueryTest, EmptyQueryMatchesEverything) {
  Relation r = TestRelation();
  SelectionQuery q;
  auto rows = ScanEvaluate(q, r);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);
}

TEST(SelectionQueryTest, ConjunctionNarrows) {
  Relation r = TestRelation();
  SelectionQuery q({Predicate::Eq("Make", Value::Cat("Toyota")),
                    Predicate::Eq("Price", Value::Num(10000))});
  auto rows = ScanEvaluate(q, r);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{0}));
}

TEST(SelectionQueryTest, RangePredicate) {
  Relation r = TestRelation();
  SelectionQuery q({Predicate("Price", CompareOp::kLt, Value::Num(9000))});
  auto rows = ScanEvaluate(q, r);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{1, 3}));
}

TEST(SelectionQueryTest, NoMatches) {
  Relation r = TestRelation();
  SelectionQuery q({Predicate::Eq("Make", Value::Cat("BMW"))});
  auto rows = ScanEvaluate(q, r);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(SelectionQueryTest, FromTupleBindsAllNonNull) {
  Schema s = TestSchema();
  SelectionQuery q = SelectionQuery::FromTuple(s, Row("Honda", "Civic", 7000));
  EXPECT_EQ(q.NumPredicates(), 3u);
  EXPECT_TRUE(*q.Matches(s, Row("Honda", "Civic", 7000)));
  EXPECT_FALSE(*q.Matches(s, Row("Honda", "Civic", 7001)));
}

TEST(SelectionQueryTest, FromTupleSkipsNulls) {
  Schema s = TestSchema();
  Tuple t({Value::Cat("Honda"), Value(), Value::Num(7000)});
  SelectionQuery q = SelectionQuery::FromTuple(s, t);
  EXPECT_EQ(q.NumPredicates(), 2u);
  EXPECT_FALSE(q.Binds("Model"));
  EXPECT_TRUE(q.Binds("Make"));
}

TEST(SelectionQueryTest, DropAttributes) {
  Schema s = TestSchema();
  SelectionQuery q = SelectionQuery::FromTuple(s, Row("Honda", "Civic", 7000));
  SelectionQuery dropped = q.DropAttributes({"Model", "Price"});
  EXPECT_EQ(dropped.NumPredicates(), 1u);
  EXPECT_TRUE(dropped.Binds("Make"));
  // Original is untouched.
  EXPECT_EQ(q.NumPredicates(), 3u);
}

TEST(SelectionQueryTest, DropUnknownAttributeIsNoop) {
  Schema s = TestSchema();
  SelectionQuery q = SelectionQuery::FromTuple(s, Row("Honda", "Civic", 7000));
  EXPECT_EQ(q.DropAttributes({"Bogus"}).NumPredicates(), 3u);
}

TEST(SelectionQueryTest, MatchesPropagatesErrors) {
  Schema s = TestSchema();
  SelectionQuery q({Predicate::Like("Make", Value::Cat("Honda"))});
  EXPECT_FALSE(q.Matches(s, Row("Honda", "Civic", 7000)).ok());
}

TEST(SelectionQueryTest, ToString) {
  SelectionQuery q({Predicate::Eq("Make", Value::Cat("Kia")),
                    Predicate::Eq("Price", Value::Num(9000))});
  EXPECT_EQ(q.ToString(), "Q(Make = Kia, Price = 9000)");
}

TEST(SelectionQueryTest, EqualityAndEmpty) {
  SelectionQuery a({Predicate::Eq("Make", Value::Cat("Kia"))});
  SelectionQuery b({Predicate::Eq("Make", Value::Cat("Kia"))});
  SelectionQuery c;
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(c.Empty());
  EXPECT_FALSE(a.Empty());
}

}  // namespace
}  // namespace aimq
