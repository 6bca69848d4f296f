// Property-based tests: invariants checked over randomized inputs using
// parameterized gtest sweeps (each parameter is an RNG seed / size).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "afd/partition.h"
#include "afd/tane.h"
#include "core/feedback.h"
#include "core/sim.h"
#include "oracles/row_oracles.h"
#include "ordering/attribute_ordering.h"
#include "rock/rock.h"
#include "ordering/multi_relax.h"
#include "similarity/value_similarity.h"
#include "util/rng.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

// ---------------------------------------------------------------------------
// Random relation machinery shared by the sweeps.

Schema RandomSchema(size_t n_cat, size_t n_num) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < n_cat; ++i) {
    attrs.push_back({"C" + std::to_string(i), AttrType::kCategorical});
  }
  for (size_t i = 0; i < n_num; ++i) {
    attrs.push_back({"N" + std::to_string(i), AttrType::kNumeric});
  }
  return Schema::Make(std::move(attrs)).ValueOrDie();
}

Relation RandomRelation(uint64_t seed, size_t rows, size_t n_cat,
                        size_t n_num, size_t cardinality) {
  Rng rng(seed);
  Relation r(RandomSchema(n_cat, n_num));
  for (size_t i = 0; i < rows; ++i) {
    std::vector<Value> vals;
    for (size_t c = 0; c < n_cat; ++c) {
      vals.push_back(Value::Cat("v" + std::to_string(rng.Uniform(cardinality))));
    }
    for (size_t n = 0; n < n_num; ++n) {
      vals.push_back(Value::Num(static_cast<double>(rng.Uniform(50))));
    }
    r.AppendUnchecked(Tuple(std::move(vals)));
  }
  return r;
}

// Brute-force g3 error of X→A over a relation.
double BruteForceG3(const Relation& r, const std::vector<size_t>& lhs,
                    size_t rhs) {
  std::map<std::vector<std::string>, std::map<std::string, size_t>> groups;
  for (const Tuple& t : r.tuples()) {
    std::vector<std::string> key;
    for (size_t a : lhs) key.push_back(t.At(a).ToString());
    ++groups[key][t.At(rhs).ToString()];
  }
  size_t keep = 0;
  for (const auto& [key, rhs_counts] : groups) {
    size_t best = 0;
    for (const auto& [v, cnt] : rhs_counts) best = std::max(best, cnt);
    keep += best;
  }
  return 1.0 - static_cast<double>(keep) / static_cast<double>(r.NumTuples());
}

// Brute-force key error of X.
double BruteForceKeyG3(const Relation& r, const std::vector<size_t>& attrs) {
  std::map<std::vector<std::string>, size_t> groups;
  for (const Tuple& t : r.tuples()) {
    std::vector<std::string> key;
    for (size_t a : attrs) key.push_back(t.At(a).ToString());
    ++groups[key];
  }
  return static_cast<double>(r.NumTuples() - groups.size()) /
         static_cast<double>(r.NumTuples());
}

// ---------------------------------------------------------------------------
// Bag invariants.

class BagPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BagPropertyTest, JaccardSymmetricBoundedAndReflexive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    Bag a, b;
    size_t items = 1 + rng.Uniform(20);
    for (size_t i = 0; i < items; ++i) {
      a.Add("k" + std::to_string(rng.Uniform(10)), 1 + rng.Uniform(5));
      b.Add("k" + std::to_string(rng.Uniform(10)), 1 + rng.Uniform(5));
    }
    double ab = a.JaccardSimilarity(b);
    EXPECT_DOUBLE_EQ(ab, b.JaccardSimilarity(a));
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(a.JaccardSimilarity(a), 1.0);
    // Inclusion-exclusion consistency.
    EXPECT_EQ(a.UnionSize(b) + a.IntersectionSize(b),
              a.TotalSize() + b.TotalSize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BagPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Partition invariants.

class PartitionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionPropertyTest, ProductRefinesFactors) {
  Relation r = RandomRelation(GetParam(), 200, 3, 0, 4);
  StrippedPartition p0 = StrippedPartition::FromColumn(r, 0);
  StrippedPartition p1 = StrippedPartition::FromColumn(r, 1);
  StrippedPartition p01 = p0.Product(p1);
  // Refinement can only increase the class count.
  EXPECT_GE(p01.NumClasses(), p0.NumClasses());
  EXPECT_GE(p01.NumClasses(), p1.NumClasses());
  // Key error can only decrease with more attributes.
  EXPECT_LE(p01.KeyError(), p0.KeyError());
  EXPECT_LE(p01.KeyError(), p1.KeyError());
}

TEST_P(PartitionPropertyTest, ProductIsAssociativeOnClassCount) {
  Relation r = RandomRelation(GetParam() + 100, 150, 3, 0, 3);
  StrippedPartition p0 = StrippedPartition::FromColumn(r, 0);
  StrippedPartition p1 = StrippedPartition::FromColumn(r, 1);
  StrippedPartition p2 = StrippedPartition::FromColumn(r, 2);
  EXPECT_EQ(p0.Product(p1).Product(p2).NumClasses(),
            p0.Product(p1.Product(p2)).NumClasses());
}

TEST_P(PartitionPropertyTest, FdErrorMatchesBruteForce) {
  Relation r = RandomRelation(GetParam() + 7, 120, 3, 0, 3);
  StrippedPartition p0 = StrippedPartition::FromColumn(r, 0);
  StrippedPartition p01 = p0.Product(StrippedPartition::FromColumn(r, 1));
  EXPECT_NEAR(p0.FdError(p01), BruteForceG3(r, {0}, 1), 1e-12);

  StrippedPartition p02 = p0.Product(StrippedPartition::FromColumn(r, 2));
  EXPECT_NEAR(p0.FdError(p02), BruteForceG3(r, {0}, 2), 1e-12);
}

TEST_P(PartitionPropertyTest, KeyErrorMatchesBruteForce) {
  Relation r = RandomRelation(GetParam() + 13, 120, 3, 0, 3);
  StrippedPartition p0 = StrippedPartition::FromColumn(r, 0);
  EXPECT_NEAR(p0.KeyError(), BruteForceKeyG3(r, {0}), 1e-12);
  StrippedPartition p01 = p0.Product(StrippedPartition::FromColumn(r, 1));
  EXPECT_NEAR(p01.KeyError(), BruteForceKeyG3(r, {0, 1}), 1e-12);
}

TEST_P(PartitionPropertyTest, FdErrorInUnitInterval) {
  Relation r = RandomRelation(GetParam() + 23, 80, 3, 0, 2);
  StrippedPartition p0 = StrippedPartition::FromColumn(r, 0);
  for (size_t rhs = 1; rhs < 3; ++rhs) {
    StrippedPartition pX =
        p0.Product(StrippedPartition::FromColumn(r, rhs));
    double e = p0.FdError(pX);
    EXPECT_GE(e, 0.0);
    EXPECT_LT(e, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// TANE agrees with brute force on every reported AFD.

class TanePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TanePropertyTest, ReportedErrorsMatchBruteForce) {
  Relation r = RandomRelation(GetParam(), 100, 4, 0, 3);
  TaneOptions opts;
  opts.error_threshold = 0.6;
  opts.max_lhs_size = 2;
  opts.max_key_size = 2;
  opts.prune_key_lhs = false;
  opts.min_gain = 0.0;
  auto deps = Tane::Mine(r, opts);
  ASSERT_TRUE(deps.ok());
  ASSERT_FALSE(deps->afds.empty());
  for (const Afd& afd : deps->afds) {
    EXPECT_NEAR(afd.error, BruteForceG3(r, AttrSetMembers(afd.lhs), afd.rhs),
                1e-12)
        << afd.ToString(r.schema());
    EXPECT_LE(afd.error, opts.error_threshold);
  }
  for (const AKey& key : deps->keys) {
    EXPECT_NEAR(key.error, BruteForceKeyG3(r, AttrSetMembers(key.attrs)),
                1e-12);
  }
}

TEST_P(TanePropertyTest, MiningIsExhaustiveUpToLimits) {
  Relation r = RandomRelation(GetParam() + 5, 60, 3, 0, 2);
  TaneOptions opts;
  opts.error_threshold = 0.5;
  opts.max_lhs_size = 2;
  opts.prune_key_lhs = false;
  opts.min_gain = 0.0;
  auto deps = Tane::Mine(r, opts);
  ASSERT_TRUE(deps.ok());
  // Every (X, A) pair with brute-force error <= threshold must be reported.
  size_t expected = 0;
  for (size_t k = 1; k <= 2; ++k) {
    for (AttrSet lhs : SubsetsOfSize(FullAttrSet(3), k)) {
      for (size_t rhs = 0; rhs < 3; ++rhs) {
        if (AttrSetContains(lhs, rhs)) continue;
        if (BruteForceG3(r, AttrSetMembers(lhs), rhs) <=
            opts.error_threshold) {
          ++expected;
        }
      }
    }
  }
  EXPECT_EQ(deps->afds.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TanePropertyTest,
                         ::testing::Values(3, 6, 9, 12, 15));

// ---------------------------------------------------------------------------
// Similarity model invariants.

class VSimPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VSimPropertyTest, SymmetricAndBounded) {
  Relation r = RandomRelation(GetParam(), 300, 3, 1, 6);
  std::vector<double> wimp(4, 0.25);
  auto model = SimilarityMiner().Mine(r, wimp);
  ASSERT_TRUE(model.ok());
  for (size_t attr = 0; attr < 3; ++attr) {
    auto values = model->MinedValues(attr);
    for (size_t i = 0; i < values.size(); ++i) {
      for (size_t j = 0; j < values.size(); ++j) {
        double s = model->VSim(attr, values[i], values[j]);
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0 + 1e-12);
        EXPECT_DOUBLE_EQ(s, model->VSim(attr, values[j], values[i]));
        if (i == j) {
          EXPECT_DOUBLE_EQ(s, 1.0);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VSimPropertyTest,
                         ::testing::Values(101, 202, 303));

// ---------------------------------------------------------------------------
// Multi-attribute relaxation order invariants.

class MultiRelaxPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MultiRelaxPropertyTest, CombinationCountsAndOrdering) {
  auto [n, k] = GetParam();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = (i * 7 + 3) % 100;
  auto combos = MultiAttributeOrder(order, k);

  // Count = C(n, k).
  double expected = 1.0;
  for (size_t i = 0; i < k; ++i) {
    expected = expected * static_cast<double>(n - i) /
               static_cast<double>(i + 1);
  }
  EXPECT_EQ(combos.size(), static_cast<size_t>(expected + 0.5));

  // Each combo lists members in relaxation-position order, and combos are
  // lexicographic in positions.
  std::map<size_t, size_t> pos;
  for (size_t i = 0; i < n; ++i) pos[order[i]] = i;
  std::vector<std::vector<size_t>> as_positions;
  for (const auto& combo : combos) {
    std::vector<size_t> positions;
    for (size_t attr : combo) positions.push_back(pos[attr]);
    EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
    as_positions.push_back(positions);
  }
  EXPECT_TRUE(std::is_sorted(as_positions.begin(), as_positions.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MultiRelaxPropertyTest,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(5, 3),
                      std::make_tuple(7, 2), std::make_tuple(7, 4),
                      std::make_tuple(6, 6), std::make_tuple(8, 1)));

// ---------------------------------------------------------------------------
// End-to-end similarity bounds on random pipelines.

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, QueryTupleSimAlwaysInUnitInterval) {
  Relation r = RandomRelation(GetParam(), 400, 2, 1, 5);
  TaneOptions topts;
  topts.error_threshold = 0.6;
  auto deps = Tane::Mine(r, topts);
  ASSERT_TRUE(deps.ok());
  if (deps->keys.empty()) GTEST_SKIP() << "no key mined for this seed";
  auto ordering = AttributeOrdering::Derive(r.schema(), *deps);
  ASSERT_TRUE(ordering.ok());
  std::vector<double> wimp;
  for (const auto& imp : ordering->importance()) wimp.push_back(imp.wimp);
  auto vsim = SimilarityMiner().Mine(r, wimp);
  ASSERT_TRUE(vsim.ok());
  SimilarityFunction sim(&r.schema(), &*ordering, &*vsim);

  Rng rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    const Tuple& a = r.tuple(rng.Uniform(r.NumTuples()));
    const Tuple& b = r.tuple(rng.Uniform(r.NumTuples()));
    double s = sim.TupleTupleSim(a, b, {0, 1, 2});
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-12);
    EXPECT_NEAR(sim.TupleTupleSim(a, a, {0, 1, 2}), 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(17, 34, 51));

// ---------------------------------------------------------------------------
// Index-assisted Execute must agree with a brute-force scan on random
// conjunctive queries (the WebDatabase's value indexes are an invisible
// optimization).

class WebDbPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WebDbPropertyTest, IndexedExecuteMatchesBruteScan) {
  Relation data = RandomRelation(GetParam(), 500, 3, 1, 5);
  WebDatabase db("R", data);
  Rng rng(GetParam() * 7 + 1);
  const Schema& schema = db.schema();

  for (int trial = 0; trial < 40; ++trial) {
    // Random conjunctive query: 1-3 predicates, equality on categoricals,
    // equality or range on the numeric attribute.
    SelectionQuery q;
    size_t preds = 1 + rng.Uniform(3);
    for (size_t p = 0; p < preds; ++p) {
      size_t attr = rng.Uniform(schema.NumAttributes());
      const Tuple& seed_tuple = data.tuple(rng.Uniform(data.NumTuples()));
      const Value& v = seed_tuple.At(attr);
      if (schema.attribute(attr).type == AttrType::kCategorical ||
          rng.Bernoulli(0.5)) {
        q.AddPredicate(Predicate::Eq(schema.attribute(attr).name, v));
      } else {
        CompareOp op = rng.Bernoulli(0.5) ? CompareOp::kLe : CompareOp::kGt;
        q.AddPredicate(Predicate(schema.attribute(attr).name, op, v));
      }
    }
    auto indexed = db.Execute(q);
    ASSERT_TRUE(indexed.ok()) << q.ToString();
    auto brute_rows = ScanEvaluate(q, data);
    ASSERT_TRUE(brute_rows.ok());
    ASSERT_EQ(indexed->size(), brute_rows->size()) << q.ToString();
    // Same multiset of tuples (order may differ between index and scan).
    std::multiset<std::string> a, b;
    for (const Tuple& t : *indexed) a.insert(t.ToString());
    for (size_t row : *brute_rows) b.insert(data.tuple(row).ToString());
    EXPECT_EQ(a, b) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WebDbPropertyTest,
                         ::testing::Values(71, 72, 73, 74));

// ---------------------------------------------------------------------------
// Feedback invariants: weights remain a probability vector under arbitrary
// judgment patterns.

class FeedbackPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeedbackPropertyTest, WeightsRemainProbabilityVector) {
  Relation r = RandomRelation(GetParam(), 200, 2, 1, 4);
  TaneOptions topts;
  topts.error_threshold = 0.6;
  auto deps = Tane::Mine(r, topts);
  ASSERT_TRUE(deps.ok());
  if (deps->keys.empty()) GTEST_SKIP() << "no key for this seed";
  auto ordering = AttributeOrdering::Derive(r.schema(), *deps);
  ASSERT_TRUE(ordering.ok());
  ValueSimilarityModel vsim;
  SimilarityFunction sim(&r.schema(), &*ordering, &vsim);

  RelevanceFeedback feedback;
  Rng rng(GetParam() + 1000);
  std::vector<double> w(3, 1.0 / 3.0);
  for (int round = 0; round < 25; ++round) {
    const Tuple& query = r.tuple(rng.Uniform(r.NumTuples()));
    std::vector<JudgedAnswer> judged;
    size_t k = 2 + rng.Uniform(6);
    for (size_t i = 0; i < k; ++i) {
      judged.push_back(JudgedAnswer{r.tuple(rng.Uniform(r.NumTuples())),
                                    static_cast<int>(rng.Uniform(k + 1))});
    }
    auto updated = feedback.Round(sim, r.schema(), query, judged, w);
    ASSERT_TRUE(updated.ok());
    w = updated.TakeValue();
    double total = 0.0;
    for (double x : w) {
      EXPECT_GT(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeedbackPropertyTest,
                         ::testing::Values(5, 10, 15));

// ---------------------------------------------------------------------------
// ROCK invariants on random categorical data.

class RockPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RockPropertyTest, LabelsFormValidPartition) {
  Relation r = RandomRelation(GetParam(), 300, 4, 0, 3);
  RockOptions opts;
  opts.theta = 0.45;
  opts.num_clusters = 5;
  opts.sample_size = 150;
  opts.seed = GetParam();
  auto rock = RockClustering::Build(r, opts);
  ASSERT_TRUE(rock.ok()) << rock.status().ToString();

  const auto& labels = rock->labels();
  ASSERT_EQ(labels.size(), r.NumTuples());
  size_t labeled = 0;
  for (int32_t l : labels) {
    EXPECT_GE(l, -1);
    EXPECT_LT(l, static_cast<int32_t>(rock->num_clusters()));
    labeled += (l >= 0);
  }
  // ClusterMembers partitions exactly the labeled rows.
  size_t members_total = 0;
  for (size_t c = 0; c < rock->num_clusters(); ++c) {
    for (size_t row : rock->ClusterMembers(static_cast<int32_t>(c))) {
      EXPECT_EQ(labels[row], static_cast<int32_t>(c));
      ++members_total;
    }
  }
  EXPECT_EQ(members_total, labeled);
}

TEST_P(RockPropertyTest, WithinClusterSimilarityExceedsCrossCluster) {
  // Build data with genuine cluster structure: two disjoint vocabularies.
  Rng rng(GetParam());
  Relation r(RandomSchema(4, 0));
  for (int i = 0; i < 300; ++i) {
    bool group_a = rng.Bernoulli(0.5);
    std::vector<Value> vals;
    for (int c = 0; c < 4; ++c) {
      int v = static_cast<int>(rng.Uniform(3));
      vals.push_back(Value::Cat((group_a ? "a" : "b") + std::to_string(v)));
    }
    r.AppendUnchecked(Tuple(std::move(vals)));
  }
  RockOptions opts;
  opts.theta = 0.3;
  opts.num_clusters = 2;
  opts.sample_size = 200;
  auto rock = RockClustering::Build(r, opts);
  ASSERT_TRUE(rock.ok());

  double within = 0.0, cross = 0.0;
  size_t within_n = 0, cross_n = 0;
  Rng pick(GetParam() + 9);
  for (int t = 0; t < 3000; ++t) {
    size_t i = pick.Uniform(r.NumTuples());
    size_t j = pick.Uniform(r.NumTuples());
    if (i == j) continue;
    if (rock->labels()[i] < 0 || rock->labels()[j] < 0) continue;
    double s = rock->RowSimilarity(i, j);
    if (rock->labels()[i] == rock->labels()[j]) {
      within += s;
      ++within_n;
    } else {
      cross += s;
      ++cross_n;
    }
  }
  ASSERT_GT(within_n, 100u);
  ASSERT_GT(cross_n, 100u);
  EXPECT_GT(within / within_n, cross / cross_n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RockPropertyTest,
                         ::testing::Values(41, 42, 43));

}  // namespace
}  // namespace aimq
