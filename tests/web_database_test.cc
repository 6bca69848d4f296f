#include "webdb/web_database.h"

#include "webdb/data_collector.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "datagen/cardb.h"

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

WebDatabase MakeDb() {
  Relation r(TestSchema());
  EXPECT_TRUE(r.Append(Row("Toyota", "Camry", 10000)).ok());
  EXPECT_TRUE(r.Append(Row("Toyota", "Corolla", 8000)).ok());
  EXPECT_TRUE(r.Append(Row("Honda", "Accord", 10000)).ok());
  EXPECT_TRUE(r.Append(Row("Honda", "Civic", 7000)).ok());
  EXPECT_TRUE(r.Append(Row("Ford", "Focus", 7000)).ok());
  return WebDatabase("TestDB", std::move(r));
}

TEST(WebDatabaseTest, ExecutesEqualityQuery) {
  WebDatabase db = MakeDb();
  SelectionQuery q({Predicate::Eq("Make", Value::Cat("Toyota"))});
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(WebDatabaseTest, ExecutesConjunction) {
  WebDatabase db = MakeDb();
  SelectionQuery q({Predicate::Eq("Make", Value::Cat("Honda")),
                    Predicate::Eq("Price", Value::Num(10000))});
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].At(1).AsCat(), "Accord");
}

TEST(WebDatabaseTest, ExecutesRangeQueryWithoutIndex) {
  WebDatabase db = MakeDb();
  SelectionQuery q({Predicate("Price", CompareOp::kLt, Value::Num(8000))});
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(WebDatabaseTest, IndexAndScanAgree) {
  WebDatabase db = MakeDb();
  // Equality on Price uses the index; combined with a range predicate the
  // result must match a pure-scan evaluation.
  SelectionQuery q({Predicate::Eq("Price", Value::Num(7000)),
                    Predicate("Price", CompareOp::kGt, Value::Num(0))});
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(WebDatabaseTest, ExecuteRowsFromReturnsTheTailOfEveryScanPath) {
  CarDbSpec spec;
  spec.num_tuples = 300;
  spec.seed = 3;
  const Relation rel = CarDbGenerator(spec).Generate();
  ColumnarBuilder::Options opts;
  opts.store.block_size = 64;  // several blocks, a partial last one
  auto builder = ColumnarBuilder::Create(rel.schema(), opts);
  ASSERT_TRUE(builder.ok());
  for (const Tuple& t : rel.tuples()) {
    ASSERT_TRUE((*builder)->AppendRow(t).ok());
  }
  auto packed = (*builder)->Finish();
  ASSERT_TRUE(packed.ok());

  // Posting-list tails (plain and packed) and block scans (plain and
  // packed, which skip whole blocks) must all return exactly the rows of
  // the full answer at or after from_row.
  std::vector<std::unique_ptr<WebDatabase>> sources;
  sources.push_back(std::make_unique<WebDatabase>("CarDB", rel));
  sources.push_back(std::make_unique<WebDatabase>("CarDB", rel.columnar()));
  sources.push_back(std::make_unique<WebDatabase>("CarDB", *packed));
  sources.push_back(std::make_unique<WebDatabase>("CarDB", *packed));
  sources.back()->BuildPostingLists();

  const Tuple first = rel.tuple(0);
  const std::vector<SelectionQuery> queries = {
      SelectionQuery({Predicate::Eq("Make", first.At(0))}),
      SelectionQuery({Predicate::Eq("Make", first.At(0)),
                      Predicate::Eq("Model", first.At(1))}),
      SelectionQuery({Predicate("Price", CompareOp::kLt, Value::Num(9000))}),
      SelectionQuery({Predicate::Eq("Make", first.At(0)),
                      Predicate("Price", CompareOp::kGe, Value::Num(6000))}),
      SelectionQuery({Predicate::Eq("Make", Value::Cat("NoSuchMake"))}),
  };
  for (size_t s = 0; s < sources.size(); ++s) {
    const WebDatabase& db = *sources[s];
    for (size_t q = 0; q < queries.size(); ++q) {
      auto all = db.ExecuteRows(queries[q]);
      ASSERT_TRUE(all.ok());
      for (size_t from : {0, 1, 63, 64, 65, 150, 299, 300, 301}) {
        std::vector<uint32_t> expected;
        for (uint32_t row : *all) {
          if (row >= from) expected.push_back(row);
        }
        auto tail = db.ExecuteRowsFrom(queries[q], from);
        ASSERT_TRUE(tail.ok());
        EXPECT_EQ(*tail, expected)
            << "source " << s << " query " << q << " from " << from;
      }
    }
  }
}

TEST(WebDatabaseTest, EmptyResultForUnknownValue) {
  WebDatabase db = MakeDb();
  SelectionQuery q({Predicate::Eq("Make", Value::Cat("BMW"))});
  auto r = db.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(WebDatabaseTest, RejectsLikePredicates) {
  WebDatabase db = MakeDb();
  SelectionQuery q({Predicate::Like("Make", Value::Cat("Toyota"))});
  auto r = db.Execute(q);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(WebDatabaseTest, RejectsUnknownAttribute) {
  WebDatabase db = MakeDb();
  SelectionQuery q({Predicate::Eq("Bogus", Value::Cat("x"))});
  EXPECT_FALSE(db.Execute(q).ok());
}

TEST(WebDatabaseTest, ProbeStatsAccumulate) {
  WebDatabase db = MakeDb();
  EXPECT_EQ(db.stats().queries_issued, 0u);
  ASSERT_TRUE(db.Execute(SelectionQuery(
                             {Predicate::Eq("Make", Value::Cat("Toyota"))}))
                  .ok());
  ASSERT_TRUE(db.Execute(SelectionQuery(
                             {Predicate::Eq("Make", Value::Cat("Honda"))}))
                  .ok());
  EXPECT_EQ(db.stats().queries_issued, 2u);
  EXPECT_EQ(db.stats().tuples_returned, 4u);
  db.ResetStats();
  EXPECT_EQ(db.stats().queries_issued, 0u);
}

TEST(WebDatabaseTest, FailedQueriesDoNotCount) {
  WebDatabase db = MakeDb();
  (void)db.Execute(SelectionQuery({Predicate::Like("Make", Value::Cat("x"))}));
  EXPECT_EQ(db.stats().queries_issued, 0u);
}

TEST(WebDatabaseTest, FormValuesSortedDistinct) {
  WebDatabase db = MakeDb();
  auto values = db.FormValues("Make");
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), 3u);
  EXPECT_EQ((*values)[0], Value::Cat("Ford"));
  EXPECT_EQ((*values)[1], Value::Cat("Honda"));
  EXPECT_EQ((*values)[2], Value::Cat("Toyota"));
}

TEST(WebDatabaseTest, FormValuesRejectNumericAttr) {
  WebDatabase db = MakeDb();
  EXPECT_FALSE(db.FormValues("Price").ok());
  EXPECT_FALSE(db.FormValues("Bogus").ok());
}

// A source that fails after a fixed number of probes — failure injection for
// everything built on the probing interface.
class FlakyWebDatabase : public WebDatabase {
 public:
  FlakyWebDatabase(Relation data, int budget)
      : WebDatabase("FlakyDB", std::move(data)), budget_(budget) {}

  Result<std::vector<uint32_t>> ExecuteRows(
      const SelectionQuery& query) const override {
    if (budget_-- <= 0) {
      return Status::IOError("connection reset by peer");
    }
    return WebDatabase::ExecuteRows(query);
  }

 private:
  mutable int budget_;
};

TEST(WebDatabaseTest, FailureInjectionPropagatesThroughCollector) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.Append(Row("Toyota", "Camry", 10000)).ok());
  ASSERT_TRUE(r.Append(Row("Honda", "Accord", 9000)).ok());
  FlakyWebDatabase flaky(std::move(r), /*budget=*/1);
  // Spanning the Make attribute needs 2 probes; the second one dies and the
  // collector must surface the transport error instead of returning a
  // partial sample.
  DataCollectorOptions opts;
  opts.spanning_attribute = "Make";
  DataCollector collector(opts);
  auto sample = collector.Collect(flaky);
  ASSERT_FALSE(sample.ok());
  EXPECT_EQ(sample.status().code(), StatusCode::kIOError);
}

TEST(WebDatabaseTest, FailureInjectionRecoversWhenBudgetSuffices) {
  Relation r(TestSchema());
  ASSERT_TRUE(r.Append(Row("Toyota", "Camry", 10000)).ok());
  ASSERT_TRUE(r.Append(Row("Honda", "Accord", 9000)).ok());
  FlakyWebDatabase flaky(std::move(r), /*budget=*/10);
  DataCollectorOptions opts;
  opts.spanning_attribute = "Make";
  auto sample = DataCollector(opts).Collect(flaky);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->NumTuples(), 2u);
}

TEST(WebDatabaseTest, SchemaAndCountExposed) {
  WebDatabase db = MakeDb();
  EXPECT_EQ(db.name(), "TestDB");
  EXPECT_EQ(db.NumTuples(), 5u);
  EXPECT_EQ(db.schema().NumAttributes(), 3u);
}

}  // namespace
}  // namespace aimq
