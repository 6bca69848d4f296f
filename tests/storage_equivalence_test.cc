// The bit-identity contract of the dictionary-encoded storage core: every
// coded evaluator must reproduce its row-store (Value-based) counterpart
// exactly — same row sets, same partitions, and the same IEEE doubles, not
// merely approximately equal scores.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "afd/partition.h"
#include "core/engine.h"
#include "core/knowledge.h"
#include "core/sim.h"
#include "datagen/cardb.h"
#include "datagen/censusdb.h"
#include "oracles/row_oracles.h"
#include "query/selection_query.h"
#include "util/rng.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

Relation CarSample(size_t n, uint64_t seed) {
  CarDbSpec spec;
  spec.num_tuples = n;
  spec.seed = seed;
  return CarDbGenerator(spec).Generate();
}

// --- Probe evaluation: coded ExecuteRows vs the row-store scan ------------

class ProbeEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = CarSample(4000, 17);
    db_ = std::make_unique<WebDatabase>("CarDB", data_);
  }

  void ExpectSameRows(const SelectionQuery& q) {
    auto coded = db_->ExecuteRows(q);
    ASSERT_TRUE(coded.ok()) << coded.status().ToString();
    auto scanned = ScanEvaluate(q, data_);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    ASSERT_EQ(coded->size(), scanned->size()) << q.ToString();
    for (size_t i = 0; i < coded->size(); ++i) {
      EXPECT_EQ((*coded)[i], static_cast<uint32_t>((*scanned)[i]))
          << q.ToString() << " row " << i;
    }
  }

  Relation data_;
  std::unique_ptr<WebDatabase> db_;
};

TEST_F(ProbeEquivalenceTest, CategoricalEquality) {
  SelectionQuery q;
  q.AddPredicate(Predicate::Eq("Make", Value::Cat("Toyota")));
  ExpectSameRows(q);
}

TEST_F(ProbeEquivalenceTest, AbsentValueMatchesNothing) {
  SelectionQuery q;
  q.AddPredicate(Predicate::Eq("Make", Value::Cat("NoSuchMake")));
  auto coded = db_->ExecuteRows(q);
  ASSERT_TRUE(coded.ok());
  EXPECT_TRUE(coded->empty());
  ExpectSameRows(q);
}

TEST_F(ProbeEquivalenceTest, NumericRanges) {
  for (CompareOp op :
       {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    SelectionQuery q;
    q.AddPredicate(Predicate("Price", op, Value::Num(15000)));
    ExpectSameRows(q);
  }
}

TEST_F(ProbeEquivalenceTest, ConjunctionsAndEmptyQuery) {
  SelectionQuery all;  // no predicates: every row
  ExpectSameRows(all);

  SelectionQuery q;
  q.AddPredicate(Predicate::Eq("Make", Value::Cat("Honda")));
  q.AddPredicate(Predicate("Mileage", CompareOp::kLe, Value::Num(90000)));
  q.AddPredicate(Predicate("Price", CompareOp::kGe, Value::Num(4000)));
  ExpectSameRows(q);
}

TEST_F(ProbeEquivalenceTest, RandomConjunctions) {
  Rng rng(99);
  const Relation& data = data_;
  const Schema& schema = data.schema();
  for (int trial = 0; trial < 40; ++trial) {
    SelectionQuery q;
    size_t num_preds = 1 + rng.Uniform(3);
    for (size_t p = 0; p < num_preds; ++p) {
      size_t attr = rng.Uniform(schema.NumAttributes());
      const Tuple& t = data.tuple(rng.Uniform(data.NumTuples()));
      const std::string& name = schema.attribute(attr).name;
      if (schema.attribute(attr).type == AttrType::kCategorical) {
        q.AddPredicate(Predicate::Eq(name, t.At(attr)));
      } else {
        static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kLt,
                                         CompareOp::kLe, CompareOp::kGt,
                                         CompareOp::kGe};
        q.AddPredicate(Predicate(name, kOps[rng.Uniform(5)], t.At(attr)));
      }
    }
    ExpectSameRows(q);
  }
}

// --- Partitions: dense counting on codes vs Value-keyed grouping ----------

TEST(PartitionEquivalenceTest, CodedMatchesRowStoreOnCarDb) {
  Relation sample = CarSample(3000, 5);
  auto cols = sample.columnar();
  for (size_t a = 0; a < sample.schema().NumAttributes(); ++a) {
    StrippedPartition coded = StrippedPartition::FromColumnCoded(*cols, a);
    StrippedPartition rows = RowStorePartition(sample, a);
    ASSERT_EQ(coded.num_rows(), rows.num_rows());
    ASSERT_EQ(coded.classes(), rows.classes()) << "attr " << a;
    EXPECT_EQ(coded.NumClasses(), rows.NumClasses());
    EXPECT_EQ(coded.NumCoveredRows(), rows.NumCoveredRows());
  }
}

TEST(PartitionEquivalenceTest, CodedMatchesRowStoreOnCensusDb) {
  CensusDbSpec spec;
  spec.num_tuples = 3000;
  spec.seed = 5;
  Relation sample = CensusDbGenerator(spec).Generate().relation;
  auto cols = sample.columnar();
  for (size_t a = 0; a < sample.schema().NumAttributes(); ++a) {
    StrippedPartition coded = StrippedPartition::FromColumnCoded(*cols, a);
    StrippedPartition rows = RowStorePartition(sample, a);
    ASSERT_EQ(coded.classes(), rows.classes()) << "attr " << a;
  }
}

// --- Sim(Q, t): coded scoring vs the Value-based evaluator ----------------

class SimEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sample_ = new Relation(CarSample(2500, 23));
    AimqOptions options;
    auto knowledge = BuildKnowledgeFromSample(*sample_, options);
    ASSERT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    knowledge_ = new MinedKnowledge(knowledge.TakeValue());
  }
  static void TearDownTestSuite() {
    delete knowledge_;
    delete sample_;
    knowledge_ = nullptr;
    sample_ = nullptr;
  }

  static Relation* sample_;
  static MinedKnowledge* knowledge_;
};

Relation* SimEquivalenceTest::sample_ = nullptr;
MinedKnowledge* SimEquivalenceTest::knowledge_ = nullptr;

TEST_F(SimEquivalenceTest, QueryScoresAreBitIdentical) {
  const Schema& schema = sample_->schema();
  SimilarityFunction sim(&schema, &knowledge_->ordering, &knowledge_->vsim);
  CodedSimilarityFunction coded(&sim, sample_->columnar());

  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    ImpreciseQuery q;
    const Tuple& t = sample_->tuple(rng.Uniform(sample_->NumTuples()));
    size_t num_bindings = 1 + rng.Uniform(3);
    for (size_t b = 0; b < num_bindings; ++b) {
      size_t attr = rng.Uniform(schema.NumAttributes());
      q.Bind(schema.attribute(attr).name, t.At(attr));
    }
    // One trial in three binds a value the sample never saw.
    if (trial % 3 == 0) q.Bind("Color", Value::Cat("UnseenChartreuse"));

    auto enc = coded.EncodeQuery(q);
    ASSERT_TRUE(enc.ok()) << enc.status().ToString();
    for (uint32_t row = 0; row < sample_->NumTuples(); row += 37) {
      auto expected = sim.QueryTupleSim(q, sample_->tuple(row));
      ASSERT_TRUE(expected.ok());
      double got = coded.Score(*enc, row);
      // Exact double equality: the coded path must execute the identical
      // IEEE operation sequence, not a reassociated one.
      ASSERT_EQ(got, *expected) << "trial " << trial << " row " << row;
    }
  }
}

TEST_F(SimEquivalenceTest, AnchorScoresAreBitIdentical) {
  const Schema& schema = sample_->schema();
  SimilarityFunction sim(&schema, &knowledge_->ordering, &knowledge_->vsim);
  CodedSimilarityFunction coded(&sim, sample_->columnar());

  std::vector<size_t> all_attrs;
  for (size_t a = 0; a < schema.NumAttributes(); ++a) all_attrs.push_back(a);

  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    uint32_t anchor_row =
        static_cast<uint32_t>(rng.Uniform(sample_->NumTuples()));
    const Tuple& anchor = sample_->tuple(anchor_row);
    auto enc_tuple = coded.EncodeAnchor(anchor, all_attrs);
    auto enc_row = coded.EncodeAnchorRow(anchor_row, all_attrs);
    for (uint32_t row = 0; row < sample_->NumTuples(); row += 53) {
      double expected =
          sim.TupleTupleSim(anchor, sample_->tuple(row), all_attrs);
      ASSERT_EQ(coded.Score(enc_tuple, row), expected) << "row " << row;
      ASSERT_EQ(coded.Score(enc_row, row), expected) << "row " << row;
    }
  }
}

// --- End-to-end: the engine's answers are reproducible bit-for-bit --------

class EngineDeterminismTest : public ::testing::Test {
 protected:
  static std::vector<RankedAnswer> RunOnce(const ImpreciseQuery& q) {
    CarDbSpec spec;
    spec.num_tuples = 5000;
    spec.seed = 41;
    WebDatabase db("CarDB", CarDbGenerator(spec).Generate());
    AimqOptions options;
    options.collector.sample_size = 2500;
    options.top_k = 10;
    auto knowledge = BuildKnowledge(db, options);
    EXPECT_TRUE(knowledge.ok()) << knowledge.status().ToString();
    AimqEngine engine(&db, knowledge.TakeValue(), options);
    auto answers = engine.Answer(q);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    return answers.ok() ? *answers : std::vector<RankedAnswer>{};
  }

  // Every ranked answer's similarity must equal the Value-based evaluator's
  // verdict on the materialized tuple, exactly.
  static void ExpectValuePathScores(const ImpreciseQuery& q,
                                    const std::vector<RankedAnswer>& answers) {
    CarDbSpec spec;
    spec.num_tuples = 5000;
    spec.seed = 41;
    WebDatabase db("CarDB", CarDbGenerator(spec).Generate());
    AimqOptions options;
    options.collector.sample_size = 2500;
    auto knowledge = BuildKnowledge(db, options);
    ASSERT_TRUE(knowledge.ok());
    MinedKnowledge k = knowledge.TakeValue();
    SimilarityFunction sim(&db.schema(), &k.ordering, &k.vsim);
    for (const RankedAnswer& a : answers) {
      auto expected = sim.QueryTupleSim(q, a.tuple);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(a.similarity, *expected);
    }
  }
};

TEST_F(EngineDeterminismTest, AnswersAreBitIdenticalAcrossRuns) {
  ImpreciseQuery q;
  q.Bind("Model", Value::Cat("Camry"));
  std::vector<RankedAnswer> first = RunOnce(q);
  std::vector<RankedAnswer> second = RunOnce(q);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].tuple == second[i].tuple) << "rank " << i;
    ASSERT_EQ(first[i].similarity, second[i].similarity) << "rank " << i;
  }
  ExpectValuePathScores(q, first);
}

TEST_F(EngineDeterminismTest, MinedKnowledgeIsBitIdenticalAcrossRuns) {
  auto mine = [] {
    AimqOptions options;
    auto k = BuildKnowledgeFromSample(CarSample(2500, 13), options);
    EXPECT_TRUE(k.ok());
    return k.TakeValue();
  };
  MinedKnowledge a = mine();
  MinedKnowledge b = mine();
  ASSERT_EQ(a.dependencies.afds.size(), b.dependencies.afds.size());
  for (size_t i = 0; i < a.dependencies.afds.size(); ++i) {
    EXPECT_EQ(a.dependencies.afds[i].lhs, b.dependencies.afds[i].lhs);
    EXPECT_EQ(a.dependencies.afds[i].rhs, b.dependencies.afds[i].rhs);
    EXPECT_EQ(a.dependencies.afds[i].error, b.dependencies.afds[i].error);
  }
  ASSERT_EQ(a.dependencies.keys.size(), b.dependencies.keys.size());
  for (size_t i = 0; i < a.dependencies.keys.size(); ++i) {
    EXPECT_EQ(a.dependencies.keys[i].attrs, b.dependencies.keys[i].attrs);
    EXPECT_EQ(a.dependencies.keys[i].error, b.dependencies.keys[i].error);
  }
  EXPECT_EQ(a.WimpVector(), b.WimpVector());
}

}  // namespace
}  // namespace aimq
