// ColumnarRelation tests: encode/decode round-trips (including the
// CSV -> Relation -> encode -> decode property over generated CarDB and
// CensusDB samples), null/empty-string dictionary edges, canonical-row
// identity, and the DistinctValues first-seen-order contract now served
// straight from the dictionaries.

#include "relation/columnar.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>
#include <unistd.h>

#include "datagen/cardb.h"
#include "datagen/censusdb.h"
#include "relation/relation.h"

namespace aimq {
namespace {

Schema MixedSchema() {
  return Schema::Make({{"Make", AttrType::kCategorical},
                       {"Price", AttrType::kNumeric}})
      .ValueOrDie();
}

TEST(ColumnarTest, RoundTripsEveryTuple) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("Ford"), Value::Num(9000)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("Kia"), Value()})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value(), Value::Num(-1.5)})).ok());
  auto cols = r.columnar();
  ASSERT_EQ(cols->NumRows(), 3u);
  for (size_t row = 0; row < r.NumTuples(); ++row) {
    EXPECT_TRUE(cols->MaterializeTuple(row) == r.tuple(row)) << "row " << row;
  }
}

TEST(ColumnarTest, NullAndEmptyStringStayDistinct) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat(""), Value::Num(1)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value(), Value::Num(1)})).ok());
  auto cols = r.columnar();
  EXPECT_NE(cols->CodeAt(0, 0), ValueDict::kNullCode);
  EXPECT_EQ(cols->CodeAt(0, 1), ValueDict::kNullCode);
  EXPECT_TRUE(cols->is_null(0, 1));
  EXPECT_FALSE(cols->is_null(0, 0));
  EXPECT_EQ(cols->ValueAt(0, 0), Value::Cat(""));
  EXPECT_TRUE(cols->ValueAt(0, 1).is_null());
  // The empty string is a real dictionary entry; null is not.
  EXPECT_EQ(cols->dict(0).size(), 1u);
}

TEST(ColumnarTest, NumericColumnCarriesRawDoubles) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value::Num(42.5)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value()})).ok());
  auto cols = r.columnar();
  EXPECT_EQ(cols->NumAt(1, 0), 42.5);
  // Nulls hold 0.0 in the raw column; nullness lives in the code column.
  EXPECT_EQ(cols->NumAt(1, 1), 0.0);
  EXPECT_TRUE(cols->is_null(1, 1));
}

TEST(ColumnarTest, CanonicalRowGroupsEqualTuples) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value::Num(1)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("b"), Value::Num(1)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value::Num(1)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value()})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value()})).ok());
  auto cols = r.columnar();
  EXPECT_EQ(cols->CanonicalRow(0), 0u);
  EXPECT_EQ(cols->CanonicalRow(1), 1u);
  EXPECT_EQ(cols->CanonicalRow(2), 0u);  // duplicate of row 0
  EXPECT_EQ(cols->CanonicalRow(3), 3u);
  EXPECT_EQ(cols->CanonicalRow(4), 3u);  // null columns compare equal too
}

TEST(ColumnarTest, NanRowsAreNeverEqual) {
  // Tuple equality uses Value equality, under which NaN != NaN; canonical
  // rows must not merge two NaN-bearing rows.
  Relation r(MixedSchema());
  const double nan = std::nan("");
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value::Num(nan)})).ok());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value::Num(nan)})).ok());
  auto cols = r.columnar();
  EXPECT_EQ(cols->CanonicalRow(0), 0u);
  EXPECT_EQ(cols->CanonicalRow(1), 1u);
  EXPECT_FALSE(r.tuple(0) == r.tuple(1));
}

TEST(ColumnarTest, SnapshotIsCachedUntilMutation) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("a"), Value::Num(1)})).ok());
  auto first = r.columnar();
  EXPECT_EQ(first.get(), r.columnar().get());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("b"), Value::Num(2)})).ok());
  auto second = r.columnar();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(first->NumRows(), 1u);
  EXPECT_EQ(second->NumRows(), 2u);
}

// Regression: DistinctValues is now served from the dictionary; its contract
// — distinct non-null values in first-seen order — must not drift.
TEST(ColumnarTest, DistinctValuesKeepFirstSeenOrder) {
  Relation r(MixedSchema());
  auto add = [&](const char* make, double price) {
    ASSERT_TRUE(
        r.Append(Tuple({Value::Cat(make), Value::Num(price)})).ok());
  };
  add("Zebra", 3);
  add("Apple", 1);
  add("Zebra", 2);
  ASSERT_TRUE(r.Append(Tuple({Value(), Value::Num(7)})).ok());
  add("Mango", 3);
  add("Apple", 9);

  std::vector<Value> distinct = r.DistinctValues(0);
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0], Value::Cat("Zebra"));  // first-seen, NOT sorted
  EXPECT_EQ(distinct[1], Value::Cat("Apple"));
  EXPECT_EQ(distinct[2], Value::Cat("Mango"));
  EXPECT_EQ(r.DistinctCount(0), 3u);
  // Numeric attributes follow the same contract (nulls excluded).
  std::vector<Value> prices = r.DistinctValues(1);
  ASSERT_EQ(prices.size(), 5u);
  EXPECT_EQ(prices[0], Value::Num(3));
  EXPECT_EQ(prices[1], Value::Num(1));
  EXPECT_EQ(prices[2], Value::Num(2));
  EXPECT_EQ(prices[3], Value::Num(7));
  EXPECT_EQ(prices[4], Value::Num(9));
}

// The satellite property test: dataset -> CSV -> Relation -> columnar encode
// -> decode reproduces every tuple of the re-read relation, and (because the
// generators emit integral numerics, which render losslessly) the re-read
// relation equals the original one tuple-for-tuple.
void RoundTripThroughCsvAndColumnar(const Relation& original,
                                    const std::string& tag) {
  auto path = std::filesystem::temp_directory_path() /
              ("aimq_columnar_" + tag + "_" + std::to_string(::getpid()) +
               ".csv");
  ASSERT_TRUE(original.WriteCsv(path.string()).ok());
  auto reread = Relation::ReadCsv(path.string(), original.schema());
  std::filesystem::remove(path);
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  ASSERT_EQ(reread->NumTuples(), original.NumTuples());

  auto cols = reread->columnar();
  ASSERT_EQ(cols->NumRows(), reread->NumTuples());
  for (size_t row = 0; row < reread->NumTuples(); ++row) {
    ASSERT_TRUE(cols->MaterializeTuple(row) == reread->tuple(row))
        << tag << " row " << row << " decode mismatch";
    ASSERT_TRUE(reread->tuple(row) == original.tuple(row))
        << tag << " row " << row << " CSV mismatch";
  }
}

TEST(ColumnarTest, CarDbCsvEncodeDecodeRoundTrip) {
  CarDbSpec spec;
  spec.num_tuples = 2000;
  spec.seed = 7;
  RoundTripThroughCsvAndColumnar(CarDbGenerator(spec).Generate(), "cardb");
}

TEST(ColumnarTest, CensusDbCsvEncodeDecodeRoundTrip) {
  CensusDbSpec spec;
  spec.num_tuples = 2000;
  spec.seed = 7;
  RoundTripThroughCsvAndColumnar(CensusDbGenerator(spec).Generate().relation,
                                 "censusdb");
}

// --- Incremental snapshot production (ColumnarRelation::Extend) ---

// Asserts the two snapshots are bit-identical: same dictionaries (codes and
// serialized bytes), same code columns, same raw numbers, same canonical
// rows, same materialized tuples.
void ExpectSnapshotsIdentical(const ColumnarRelation& a,
                              const ColumnarRelation& b) {
  ASSERT_EQ(a.NumRows(), b.NumRows());
  ASSERT_EQ(a.NumAttributes(), b.NumAttributes());
  for (size_t attr = 0; attr < a.NumAttributes(); ++attr) {
    std::string bytes_a, bytes_b;
    a.dict(attr).SerializeTo(&bytes_a);
    b.dict(attr).SerializeTo(&bytes_b);
    EXPECT_EQ(bytes_a, bytes_b) << "dict of attr " << attr;
    for (size_t row = 0; row < a.NumRows(); ++row) {
      ASSERT_EQ(a.CodeAt(attr, row), b.CodeAt(attr, row))
          << "attr " << attr << " row " << row;
      if (a.schema().attribute(attr).type == AttrType::kNumeric) {
        const double na = a.NumAt(attr, row);
        const double nb = b.NumAt(attr, row);
        ASSERT_TRUE(na == nb || (std::isnan(na) && std::isnan(nb)))
            << "attr " << attr << " row " << row;
      }
    }
  }
  for (uint32_t row = 0; row < a.NumRows(); ++row) {
    ASSERT_EQ(a.CanonicalRow(row), b.CanonicalRow(row)) << "row " << row;
    ASSERT_TRUE(a.MaterializeTuple(row) == b.MaterializeTuple(row))
        << "row " << row;
  }
}

TEST(ColumnarExtendTest, ExtendIsBitIdenticalToFromScratchEncode) {
  CarDbSpec spec;
  spec.num_tuples = 300;
  spec.seed = 23;
  Relation all = CarDbGenerator(spec).Generate();

  // Base = first 200 rows; delta = the remaining 100.
  Relation base(all.schema());
  std::vector<Tuple> delta;
  for (size_t i = 0; i < all.NumTuples(); ++i) {
    if (i < 200) {
      ASSERT_TRUE(base.Append(all.tuple(i)).ok());
    } else {
      delta.push_back(all.tuple(i));
    }
  }

  auto extended = ColumnarRelation::Extend(*base.columnar(), delta, 1);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ((*extended)->snapshot_version(), 1u);
  // The first Extend of a snapshot continues its lineage.
  EXPECT_EQ((*extended)->lineage_uid(), base.columnar()->lineage_uid());
  ExpectSnapshotsIdentical(**extended, *all.columnar());
}

TEST(ColumnarExtendTest, ChainedExtendsMatchOneFromScratchEncode) {
  Relation all(MixedSchema());
  std::vector<std::vector<Tuple>> deltas;
  const char* makes[] = {"Ford", "Kia", "", "Ford"};
  for (int d = 0; d < 4; ++d) {
    std::vector<Tuple> delta;
    for (int i = 0; i < 5; ++i) {
      Tuple t({i % 3 == 0 ? Value() : Value::Cat(makes[d]),
               i % 2 == 0 ? Value::Num(1000 * d + i) : Value()});
      ASSERT_TRUE(all.Append(t).ok());
      delta.push_back(std::move(t));
    }
    deltas.push_back(std::move(delta));
  }

  std::shared_ptr<const ColumnarRelation> snap =
      Relation(MixedSchema()).columnar();
  for (size_t d = 0; d < deltas.size(); ++d) {
    auto next = ColumnarRelation::Extend(*snap, deltas[d], d + 1);
    ASSERT_TRUE(next.ok()) << "delta " << d;
    snap = *next;
    EXPECT_EQ(snap->snapshot_version(), d + 1);
  }
  ExpectSnapshotsIdentical(*snap, *all.columnar());
}

TEST(ColumnarExtendTest, EmptyDeltaAdvancesOnlyTheVersion) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("Ford"), Value::Num(1)})).ok());
  auto extended = ColumnarRelation::Extend(*r.columnar(), {}, 7);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ((*extended)->snapshot_version(), 7u);
  ExpectSnapshotsIdentical(**extended, *r.columnar());
}

TEST(ColumnarExtendTest, ExtendValidatesDeltaRows) {
  Relation r(MixedSchema());
  ASSERT_TRUE(r.Append(Tuple({Value::Cat("Ford"), Value::Num(1)})).ok());
  auto cols = r.columnar();
  // Wrong arity.
  EXPECT_FALSE(
      ColumnarRelation::Extend(*cols, {Tuple({Value::Cat("x")})}, 1).ok());
  // Type mismatch: categorical value in the numeric column.
  EXPECT_FALSE(ColumnarRelation::Extend(
                   *cols, {Tuple({Value::Cat("x"), Value::Cat("y")})}, 1)
                   .ok());
  // All-or-nothing: the base snapshot is untouched either way.
  EXPECT_EQ(cols->NumRows(), 1u);
}

// Builds a packed snapshot of rows [0, count) of \p rows with \p store.
std::shared_ptr<const ColumnarRelation> BuildPacked(
    const Relation& rows, size_t count,
    const storage::BlockStoreOptions& store) {
  ColumnarBuilder::Options opts;
  opts.store = store;
  auto builder = ColumnarBuilder::Create(rows.schema(), opts);
  EXPECT_TRUE(builder.ok());
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE((*builder)->AppendRow(rows.tuple(i)).ok());
  }
  auto packed = (*builder)->Finish();
  EXPECT_TRUE(packed.ok());
  return packed.ok() ? *packed : nullptr;
}

std::vector<Tuple> RowsFrom(const Relation& rows, size_t begin) {
  std::vector<Tuple> out;
  for (size_t i = begin; i < rows.NumTuples(); ++i) {
    out.push_back(rows.tuple(i));
  }
  return out;
}

TEST(ColumnarExtendTest, ExtendFromPackedBaseMatchesPlainEncode) {
  CarDbSpec spec;
  spec.num_tuples = 150;
  spec.seed = 5;
  Relation all = CarDbGenerator(spec).Generate();

  storage::BlockStoreOptions store;
  store.block_size = 64;  // several blocks; 100 and 150 rows end ragged
  store.budget_bytes = 512;  // two decoded blocks: reads evict
  const auto packed_base = BuildPacked(all, 100, store);
  ASSERT_NE(packed_base, nullptr);
  ASSERT_TRUE(packed_base->packed());

  auto extended =
      ColumnarRelation::Extend(*packed_base, RowsFrom(all, 100), 3);
  ASSERT_TRUE(extended.ok());
  // Extend keeps the base's form and its store's block grid and budget.
  ASSERT_TRUE((*extended)->packed());
  const storage::CodeBlockStore& out_store = *(*extended)->block_store();
  EXPECT_EQ(out_store.block_size(), 64u);
  EXPECT_EQ(out_store.GetStats().num_blocks, 3u);
  EXPECT_EQ(out_store.options().budget_bytes, 512u);
  EXPECT_EQ((*extended)->snapshot_version(), 3u);
  EXPECT_EQ((*extended)->lineage_uid(), packed_base->lineage_uid());
  // The plain from-scratch encode stays the oracle.
  ASSERT_FALSE(all.columnar()->packed());
  ExpectSnapshotsIdentical(**extended, *all.columnar());
  EXPECT_GT(out_store.GetStats().cache.evictions, 0u);
}

// A base under a budget that evicts: the extended snapshot lives in its own
// store, and the base still decodes every block the same way afterwards.
TEST(ColumnarExtendTest, ExtendOfEvictingPackedBaseLeavesTheBaseReadable) {
  CarDbSpec spec;
  spec.num_tuples = 400;
  spec.seed = 9;
  Relation all = CarDbGenerator(spec).Generate();
  Relation base_rows(all.schema());
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(base_rows.Append(all.tuple(i)).ok());
  }

  storage::BlockStoreOptions store;
  store.block_size = 64;
  store.budget_bytes = 1024;  // four decoded blocks: reads evict
  const auto base = BuildPacked(all, 300, store);
  ASSERT_NE(base, nullptr);

  auto extended = ColumnarRelation::Extend(*base, RowsFrom(all, 300), 1);
  ASSERT_TRUE(extended.ok());
  ASSERT_TRUE((*extended)->packed());
  const storage::CodeBlockStore& out_store = *(*extended)->block_store();
  EXPECT_EQ(out_store.options().budget_bytes, 1024u);
  ExpectSnapshotsIdentical(**extended, *all.columnar());
  EXPECT_GT(out_store.GetStats().cache.evictions, 0u);

  // Every base row, re-read through evictions, still equals the plain
  // oracle.
  ExpectSnapshotsIdentical(*base, *base_rows.columnar());
  EXPECT_GT(base->block_store()->GetStats().cache.evictions, 0u);
}

TEST(ColumnarExtendTest, SecondExtendOfOneBaseStartsANewLineage) {
  Relation all(MixedSchema());
  std::vector<Tuple> first, second;
  for (int i = 0; i < 6; ++i) {
    Tuple t({Value::Cat(i % 2 == 0 ? "Ford" : "Kia"), Value::Num(i % 3)});
    ASSERT_TRUE(all.Append(t).ok());
    (i < 3 ? first : second).push_back(std::move(t));
  }
  Relation base_rows(MixedSchema());
  for (const Tuple& t : first) ASSERT_TRUE(base_rows.Append(t).ok());
  const auto base = base_rows.columnar();

  auto heir = ColumnarRelation::Extend(*base, second, 1);
  auto sibling = ColumnarRelation::Extend(*base, second, 1);
  ASSERT_TRUE(heir.ok());
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ((*heir)->lineage_uid(), base->lineage_uid());
  EXPECT_NE((*sibling)->lineage_uid(), base->lineage_uid());
  EXPECT_NE((*sibling)->lineage_uid(), (*heir)->lineage_uid());
  // The sibling rebuilt its canonical index rather than inheriting one;
  // both encode exactly what a from-scratch encode does.
  ExpectSnapshotsIdentical(**heir, *all.columnar());
  ExpectSnapshotsIdentical(**sibling, *all.columnar());

  // Extending a packed snapshot obeys the same first-heir rule.
  storage::BlockStoreOptions store;
  store.block_size = 64;
  const auto packed = BuildPacked(all, 3, store);
  ASSERT_NE(packed, nullptr);
  auto packed_heir = ColumnarRelation::Extend(*packed, second, 1);
  auto packed_sibling = ColumnarRelation::Extend(*packed, second, 1);
  ASSERT_TRUE(packed_heir.ok());
  ASSERT_TRUE(packed_sibling.ok());
  ASSERT_TRUE((*packed_heir)->packed());
  EXPECT_EQ((*packed_heir)->lineage_uid(), packed->lineage_uid());
  EXPECT_NE((*packed_sibling)->lineage_uid(), packed->lineage_uid());
  EXPECT_NE((*packed_sibling)->lineage_uid(), (*packed_heir)->lineage_uid());
  ExpectSnapshotsIdentical(**packed_heir, *all.columnar());
  ExpectSnapshotsIdentical(**packed_sibling, *all.columnar());
  // The heir's own heir continues the lineage again.
  auto grandchild = ColumnarRelation::Extend(**heir, {}, 2);
  ASSERT_TRUE(grandchild.ok());
  EXPECT_EQ((*grandchild)->lineage_uid(), base->lineage_uid());
}

TEST(ColumnarExtendTest, ChainedIndexHandoffsMatchFromScratchCanonicalRows) {
  CarDbSpec spec;
  spec.num_tuples = 120;
  spec.seed = 31;
  const Relation source = CarDbGenerator(spec).Generate();

  // Every delta repeats rows already published (and rows of its own), so
  // canonical rows must resolve against the handed-over index, not just
  // within the delta.
  Relation all(source.schema());
  Relation base_rows(source.schema());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(all.Append(source.tuple(i)).ok());
    ASSERT_TRUE(base_rows.Append(source.tuple(i)).ok());
  }
  std::shared_ptr<const ColumnarRelation> snap = base_rows.columnar();
  std::shared_ptr<const ColumnarRelation> branch_base;
  for (size_t d = 0; d < 8; ++d) {
    std::vector<Tuple> delta;
    for (size_t i = 0; i < 10; ++i) {
      const size_t fresh = 40 + d * 10 + i;
      const size_t row = i % 3 == 0 ? (d * 7 + i) % fresh : fresh;
      delta.push_back(source.tuple(row % source.NumTuples()));
    }
    delta.push_back(delta.front());
    for (const Tuple& t : delta) ASSERT_TRUE(all.Append(t).ok());
    auto next = ColumnarRelation::Extend(*snap, delta, d + 1);
    ASSERT_TRUE(next.ok()) << "delta " << d;
    EXPECT_EQ((*next)->lineage_uid(), base_rows.columnar()->lineage_uid());
    if (d == 3) branch_base = snap;
    snap = *next;
    ExpectSnapshotsIdentical(*snap, *all.columnar());
  }

  // Extending a snapshot whose index its first heir already took: the
  // second heir rebuilds it and still matches a from-scratch encode.
  Relation branch_all(source.schema());
  for (size_t row = 0; row < branch_base->NumRows(); ++row) {
    ASSERT_TRUE(branch_all.Append(branch_base->MaterializeTuple(row)).ok());
  }
  const std::vector<Tuple> tail = {source.tuple(0), source.tuple(119),
                                   source.tuple(0)};
  for (const Tuple& t : tail) ASSERT_TRUE(branch_all.Append(t).ok());
  auto branch = ColumnarRelation::Extend(*branch_base, tail, 99);
  ASSERT_TRUE(branch.ok());
  EXPECT_NE((*branch)->lineage_uid(), branch_base->lineage_uid());
  ExpectSnapshotsIdentical(**branch, *branch_all.columnar());
}

}  // namespace
}  // namespace aimq
