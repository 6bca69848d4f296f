// Key-native delta extensions: a probe-cache extension evaluates the new
// rows straight from the cached probe's ProbeKey (WebDatabase::
// ExecuteKeyFrom) instead of rebuilding, validating and compiling its
// SelectionQuery. These tests hold the native path to the query path it
// replaces — for every term kind a key holds, on every source form, from
// any row, rows and status both — and check the one fallback rule
// (ProbeKey::CanError) that sends keys whose evaluation can fail down the
// query path.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "datagen/cardb.h"
#include "query/predicate.h"
#include "shard/sharded_engine.h"
#include "webdb/probe_cache.h"
#include "webdb/probe_key.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

constexpr size_t kRows = 400;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// CarDB rows with nulls and NaNs mixed in, so range terms meet null rows and
// NaN rows (CarDB itself has neither). Every row without a Model is
// "Chartreuse", and so is one late row with a Model: a range on Model under
// that color answers cleanly until that row arrives, then fails.
constexpr size_t kChartreuseRow = kRows - 5;
std::vector<Tuple> Rows() {
  CarDbSpec spec;
  spec.num_tuples = kRows;
  spec.seed = 5;
  const Relation rel = CarDbGenerator(spec).Generate();
  std::vector<Tuple> rows;
  for (size_t i = 0; i < rel.NumTuples(); ++i) {
    std::vector<Value> v = rel.tuple(i).values();
    if (i % 7 == 3) v[3] = Value();            // Price
    if (i % 11 == 5) v[4] = Value();           // Mileage
    if (i % 13 == 2) v[1] = Value();           // Model
    if (i % 17 == 9) v[3] = Value::Num(kNaN);  // Price
    if (i % 13 == 2 || i == kChartreuseRow) v[6] = Value::Cat("Chartreuse");
    rows.push_back(Tuple(std::move(v)));
  }
  return rows;
}

Relation ToRelation(const std::vector<Tuple>& rows, size_t begin,
                    size_t end) {
  Relation rel(CarDbGenerator::MakeSchema());
  for (size_t i = begin; i < end; ++i) {
    EXPECT_TRUE(rel.Append(rows[i]).ok());
  }
  return rel;
}

// `attr <= hi AND attr >= lo` around \p v: the band a relaxation binds.
void AddBand(const std::string& attr, const Value& v,
             std::vector<Predicate>* preds) {
  const double width = std::abs(v.AsNum()) * 0.1;
  preds->push_back(
      Predicate(attr, CompareOp::kLe, Value::Num(v.AsNum() + width)));
  preds->push_back(
      Predicate(attr, CompareOp::kGe, Value::Num(v.AsNum() - width)));
}

// Queries whose keys cannot fail: one per term kind and mixes of them.
std::vector<SelectionQuery> NativeQueries(const std::vector<Tuple>& rows) {
  const Tuple& t = rows[kRows - 20];  // a late row: in every delta
  const Tuple& u = rows[1];
  std::vector<SelectionQuery> out;
  // Code equalities.
  out.push_back(SelectionQuery({Predicate::Eq("Make", t.At(0))}));
  out.push_back(SelectionQuery({Predicate::Eq("Make", t.At(0)),
                                Predicate::Eq("Model", t.At(1)),
                                Predicate::Eq("Year", t.At(2))}));
  out.push_back(SelectionQuery({Predicate::Eq("Price", u.At(3))}));
  // No terms at all: every row.
  out.push_back(SelectionQuery());
  // Banded ranges, alone and under code equalities.
  std::vector<Predicate> band;
  AddBand("Price", u.At(3), &band);
  out.push_back(SelectionQuery(band));
  // An equality and ranges on one attribute.
  band.push_back(Predicate::Eq("Price", u.At(3)));
  out.push_back(SelectionQuery(band));
  // Two ranges on an attribute that is not the key's first: the second
  // reads the column the first one scans.
  out.push_back(SelectionQuery(
      {Predicate("Price", CompareOp::kLe, Value::Num(1e12)),
       Predicate("Mileage", CompareOp::kLe, Value::Num(1e12)),
       Predicate("Mileage", CompareOp::kGe, u.At(4))}));
  band = {Predicate::Eq("Make", u.At(0))};
  AddBand("Price", u.At(3), &band);
  AddBand("Mileage", u.At(4), &band);
  out.push_back(SelectionQuery(band));
  out.push_back(SelectionQuery(
      {Predicate("Mileage", CompareOp::kLt, u.At(4)),
       Predicate("Price", CompareOp::kGt, Value::Num(9000)),
       Predicate::Eq("Color", u.At(6))}));
  // Ranges that null rows (stored as 0.0) would pass if compared as numbers.
  out.push_back(
      SelectionQuery({Predicate("Price", CompareOp::kLt, Value::Num(1))}));
  out.push_back(
      SelectionQuery({Predicate::Eq("Make", t.At(0)),
                      Predicate("Mileage", CompareOp::kLe, Value::Num(1))}));
  // Equality on numbers no row holds: NaN, and an absent number.
  out.push_back(SelectionQuery({Predicate::Eq("Price", Value::Num(kNaN))}));
  out.push_back(SelectionQuery({Predicate::Eq("Make", t.At(0)),
                                Predicate::Eq("Price", Value::Num(kNaN))}));
  out.push_back(SelectionQuery({Predicate::Eq("Price", Value::Num(0.125))}));
  // Equality on absent strings.
  out.push_back(
      SelectionQuery({Predicate::Eq("Make", Value::Cat("NoSuchMake"))}));
  out.push_back(SelectionQuery({Predicate::Eq("Make", t.At(0)),
                                Predicate::Eq("Model", Value::Cat("Nope"))}));
  // Null operands, under equality and range.
  out.push_back(SelectionQuery({Predicate::Eq("Make", Value())}));
  out.push_back(SelectionQuery({Predicate::Eq("Make", t.At(0)),
                                Predicate("Price", CompareOp::kLe, Value())}));
  return out;
}

// Queries whose keys can fail: they take the query path.
std::vector<SelectionQuery> FallbackQueries(const std::vector<Tuple>& rows) {
  const Tuple& t = rows[kRows - 20];
  return {
      // A range on a categorical attribute, numeric and string operands;
      // the last one fails only from kChartreuseRow on.
      SelectionQuery({Predicate("Make", CompareOp::kLe, Value::Num(5))}),
      SelectionQuery({Predicate::Eq("Color", Value::Cat("Chartreuse")),
                      Predicate("Model", CompareOp::kGe, Value::Num(5))}),
      SelectionQuery({Predicate::Eq("Make", t.At(0)),
                      Predicate("Model", CompareOp::kGe, Value::Cat("M"))}),
      // A string operand bounding a numeric attribute.
      SelectionQuery({Predicate("Price", CompareOp::kLt, Value::Cat("x"))}),
      // Rejected by the source before any row is read.
      SelectionQuery({Predicate::Like("Model", t.At(1))}),
      SelectionQuery({Predicate::Eq("NoSuchAttr", Value::Cat("x"))}),
  };
}

// Every source form, over one lineage: `v0` holds the first base_rows rows,
// `v1` all of them, extended from v0 as a publish does.
struct Lineage {
  std::string form;
  std::shared_ptr<const WebDatabase> v0;
  std::shared_ptr<const WebDatabase> v1;
};

std::shared_ptr<WebDatabase> Extended(const WebDatabase& base,
                                      const std::vector<Tuple>& rows,
                                      size_t from) {
  const std::vector<Tuple> delta(rows.begin() + from, rows.end());
  auto next = ColumnarRelation::Extend(*base.columnar(), delta, 1);
  EXPECT_TRUE(next.ok());
  EXPECT_EQ((*next)->lineage_uid(), base.columnar()->lineage_uid());
  auto db = std::make_shared<WebDatabase>(base.name(), *next);
  db->ExtendPostingLists(base);
  return db;
}

std::vector<Lineage> Lineages(const std::vector<Tuple>& rows,
                              size_t base_rows) {
  std::vector<Lineage> out;
  const Relation base = ToRelation(rows, 0, base_rows);

  auto plain = std::make_shared<WebDatabase>("CarDB", base);
  out.push_back({"plain with postings", plain, Extended(*plain, rows,
                                                        base_rows)});
  auto bare = std::make_shared<WebDatabase>("CarDB", base.columnar());
  out.push_back({"plain", bare, Extended(*bare, rows, base_rows)});

  // A lineage's first Extend continues it, so each packed form gets a base
  // snapshot of its own.
  const auto packed_base = [&] {
    ColumnarBuilder::Options opts;
    opts.store.block_size = 64;  // several blocks, a partial last one
    auto builder = ColumnarBuilder::Create(base.schema(), opts);
    EXPECT_TRUE(builder.ok());
    for (size_t i = 0; i < base_rows; ++i) {
      EXPECT_TRUE((*builder)->AppendRow(rows[i]).ok());
    }
    auto cols = (*builder)->Finish();
    EXPECT_TRUE(cols.ok());
    return std::make_shared<WebDatabase>("CarDB", *cols);
  };
  auto packed = packed_base();
  out.push_back({"packed", packed, Extended(*packed, rows, base_rows)});
  auto indexed = packed_base();
  indexed->BuildPostingLists();
  out.push_back(
      {"packed with postings", indexed, Extended(*indexed, rows, base_rows)});

  // The shard facade over the plain lineage, as live serving builds it.
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    ShardedEngineOptions sopts;
    sopts.num_shards = shards;
    auto f0 = ShardedWebDatabase::Create(out[0].v0, sopts);
    EXPECT_TRUE(f0.ok());
    auto f1 = ShardedWebDatabase::Create(out[0].v1, sopts, f0->get());
    EXPECT_TRUE(f1.ok());
    out.push_back({"facade " + std::to_string(shards) + " shards",
                   std::shared_ptr<const WebDatabase>(f0.TakeValue()),
                   std::shared_ptr<const WebDatabase>(f1.TakeValue())});
  }
  return out;
}

// A cached answer as a plain row list, for comparing with a source's.
Result<std::vector<uint32_t>> Unshared(const Result<SharedRows>& rows) {
  if (!rows.ok()) return rows.status();
  return **rows;
}

// Rows and status of two answers agree.
void ExpectSameAnswer(const Result<std::vector<uint32_t>>& got,
                      const Result<std::vector<uint32_t>>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (want.ok()) {
    EXPECT_EQ(*got, *want);
  } else {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
  }
}

TEST(NativeDeltaTest, FallbackRuleMarksExactlyTheKeysThatCanFail) {
  const std::vector<Tuple> rows = Rows();
  const WebDatabase db("CarDB", ToRelation(rows, 0, kRows));
  for (const SelectionQuery& q : NativeQueries(rows)) {
    SCOPED_TRACE(q.ToString());
    const ProbeKey key = ProbeKey::ForQuery(*db.columnar(), q);
    EXPECT_FALSE(key.CanError(db.schema()));
    EXPECT_TRUE(db.ExecuteRows(q).ok());
  }
  // Each fallback query does fail on these rows: the rule is not loose.
  for (const SelectionQuery& q : FallbackQueries(rows)) {
    SCOPED_TRACE(q.ToString());
    const ProbeKey key = ProbeKey::ForQuery(*db.columnar(), q);
    EXPECT_TRUE(key.CanError(db.schema()));
    EXPECT_FALSE(db.ExecuteRows(q).ok());
    // The native path refuses such a key instead of reading its terms.
    EXPECT_EQ(db.ExecuteKeyFrom(key, 0).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(NativeDeltaTest, TermReaderDecodesWhatForQueryEncodes) {
  const std::vector<Tuple> rows = Rows();
  const WebDatabase db("CarDB", ToRelation(rows, 0, kRows));
  const Tuple& t = rows[0];
  // Sorted by (attribute, operator): Make, Price <= , Price >=, and the
  // unknown attribute last; the absent string's bytes are skipped.
  const SelectionQuery q(
      {Predicate::Eq("NoSuchAttr", Value::Cat("long enough to spill")),
       Predicate("Price", CompareOp::kGe, Value::Num(1.5)),
       Predicate::Eq("Model", Value::Cat("a string nobody holds")),
       Predicate("Price", CompareOp::kLe, Value::Num(kNaN)),
       Predicate::Eq("Make", t.At(0)), Predicate::Eq("Year", Value())});
  const ProbeKey key = ProbeKey::ForQuery(*db.columnar(), q);
  ProbeKey::TermReader reader(key);
  std::vector<ProbeKey::Term> terms;
  ProbeKey::Term term;
  while (reader.Next(&term)) terms.push_back(term);
  ASSERT_EQ(terms.size(), 6u);
  EXPECT_EQ(terms[0].attr, 0u);
  EXPECT_EQ(terms[0].kind, ProbeKey::kCodeTerm);
  EXPECT_EQ(terms[0].code, db.columnar()->dict(0).Lookup(t.At(0)));
  EXPECT_EQ(terms[1].attr, 1u);
  EXPECT_EQ(terms[1].kind, ProbeKey::kStrTerm);
  EXPECT_EQ(terms[2].attr, 2u);
  EXPECT_EQ(terms[2].kind, ProbeKey::kNullTerm);
  EXPECT_EQ(terms[3].attr, 3u);
  EXPECT_EQ(terms[3].op, CompareOp::kLe);
  EXPECT_EQ(terms[3].kind, ProbeKey::kNumTerm);
  EXPECT_TRUE(std::isnan(terms[3].num));
  EXPECT_EQ(terms[4].op, CompareOp::kGe);
  EXPECT_EQ(terms[4].num, 1.5);
  EXPECT_EQ(terms[5].attr, ProbeKey::kUnknownAttr);
  EXPECT_EQ(terms[5].kind, ProbeKey::kStrTerm);
}

TEST(NativeDeltaTest, KeyRowsEqualQueryRowsFromAnyRow) {
  const std::vector<Tuple> rows = Rows();
  std::mt19937 rng(7);
  for (const Lineage& lineage : Lineages(rows, 250)) {
    SCOPED_TRACE(lineage.form);
    const WebDatabase& db = *lineage.v1;
    for (const SelectionQuery& q : NativeQueries(rows)) {
      SCOPED_TRACE(q.ToString());
      const ProbeKey key = ProbeKey::ForQuery(*db.columnar(), q);
      std::vector<size_t> froms = {0, 1, 249, 250, kRows - 1, kRows,
                                   kRows + 1};
      for (int i = 0; i < 8; ++i) froms.push_back(rng() % (kRows + 1));
      for (const size_t from : froms) {
        SCOPED_TRACE("from_row " + std::to_string(from));
        const uint64_t probes = db.stats().queries_issued.load();
        ExpectSameAnswer(db.ExecuteKeyFrom(key, from),
                         db.ExecuteRowsFrom(q, from));
        // Each evaluation is accounted as one probe.
        EXPECT_EQ(db.stats().queries_issued.load(), probes + 2);
      }
    }
  }
}

TEST(NativeDeltaTest, CacheExtensionsEqualAFreshSourceOnEveryForm) {
  const std::vector<Tuple> rows = Rows();
  const WebDatabase fresh("CarDB", ToRelation(rows, 0, kRows));
  std::vector<SelectionQuery> queries = NativeQueries(rows);
  for (const SelectionQuery& q : FallbackQueries(rows)) queries.push_back(q);
  std::mt19937 rng(11);
  // Random splits, and one that leaves the failing row to the delta.
  std::vector<size_t> splits = {kChartreuseRow};
  for (int i = 0; i < 3; ++i) splits.push_back(1 + rng() % (kRows - 1));
  for (const size_t base_rows : splits) {
    SCOPED_TRACE("base rows " + std::to_string(base_rows));
    for (const Lineage& lineage : Lineages(rows, base_rows)) {
      SCOPED_TRACE(lineage.form);
      ProbeCache cache(1024);
      cache.EnableCoalescing(true);
      for (const SelectionQuery& q : queries) {
        SCOPED_TRACE(q.ToString());
        ExpectSameAnswer(Unshared(cache.ExecuteRows(*lineage.v0, q)),
                         lineage.v0->ExecuteRows(q));
        ExpectSameAnswer(Unshared(cache.ExecuteRows(*lineage.v1, q)),
                         fresh.ExecuteRows(q));
        // Once more: a hit on the extended entry, or — after a failure,
        // which is never cached — the same answer again.
        const uint64_t probes = lineage.v1->stats().queries_issued.load();
        ExpectSameAnswer(Unshared(cache.ExecuteRows(*lineage.v1, q)),
                         fresh.ExecuteRows(q));
        if (fresh.ExecuteRows(q).ok()) {
          EXPECT_EQ(lineage.v1->stats().queries_issued.load(), probes);
        }
      }
      // Every query v0 answered was extended, native or not.
      EXPECT_GT(cache.stats().extended, 0u);
    }
  }
}

// The correctness trap of carrying entries across publishes: a key whose
// value the dictionary lacks matches nothing, but the next version may
// intern that value. Its lookups then build a code key — a different entry —
// so the cache answers exactly what a fresh source does.
TEST(NativeDeltaTest, AbsentValueInternedByADeltaIsFoundAtTheNextVersion) {
  std::vector<Tuple> rows = Rows();
  const size_t base_rows = kRows - 3;
  // The delta interns a new make, model and price.
  std::vector<Value> values = rows[kRows - 2].values();
  values[0] = Value::Cat("Tesla");
  values[1] = Value::Cat("Roadster");
  values[3] = Value::Num(123456.5);
  rows[kRows - 2] = Tuple(std::move(values));
  const WebDatabase fresh("CarDB", ToRelation(rows, 0, kRows));
  const std::vector<SelectionQuery> queries = {
      SelectionQuery({Predicate::Eq("Make", Value::Cat("Tesla"))}),
      SelectionQuery({Predicate::Eq("Make", rows[0].At(0)),
                      Predicate::Eq("Model", Value::Cat("Roadster"))}),
      SelectionQuery({Predicate::Eq("Model", Value::Cat("Roadster")),
                      Predicate::Eq("Price", Value::Num(123456.5))}),
      SelectionQuery({Predicate::Eq("Price", Value::Num(123456.5))}),
  };
  for (const Lineage& lineage : Lineages(rows, base_rows)) {
    SCOPED_TRACE(lineage.form);
    ProbeCache cache(1024);
    for (const SelectionQuery& q : queries) {
      SCOPED_TRACE(q.ToString());
      auto before = cache.ExecuteRows(*lineage.v0, q);
      ASSERT_TRUE(before.ok());
      EXPECT_TRUE((*before)->empty());
      const auto want = fresh.ExecuteRows(q);
      ASSERT_TRUE(want.ok());
      ExpectSameAnswer(Unshared(cache.ExecuteRows(*lineage.v1, q)),
                       want);
      // Once more, now as a hit on whichever entry the lookup landed on.
      ExpectSameAnswer(Unshared(cache.ExecuteRows(*lineage.v1, q)),
                       want);
    }
  // The new make is found at v1: the check above is not vacuous.
  EXPECT_EQ(*fresh.ExecuteRows(queries[0]),
            std::vector<uint32_t>{static_cast<uint32_t>(kRows - 2)});
  }
}

}  // namespace
}  // namespace aimq
