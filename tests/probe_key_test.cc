// ProbeKey equivalence and distinctness.
//
// The relaxation loop keys every probe with RelaxedProbeKeys, straight from
// the base row's codes, and builds the SelectionQuery only on a cache miss.
// Base-set probes and everything else key with ProbeKey::ForQuery. Both must
// agree word for word, or relaxation probes would stop sharing cache entries
// with equivalent queries and probe accounting would move. These tests pin
// that for every row of CarDB and CensusDB samples (with null, NaN and -0.0
// cells), in every storage form, at band 0 and 0.1, for every relaxation
// combination. A string renderer of the same key content serves as the
// oracle for "two queries share a key exactly when they are equivalent".

#include "webdb/probe_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/relaxation.h"
#include "datagen/cardb.h"
#include "datagen/censusdb.h"
#include "relation/columnar.h"
#include "relation/relation.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void AppendBits(std::string* out, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  AppendU64(out, bits);
}

// Oracle: the query's predicates resolved through the snapshot's
// dictionaries, rendered as length-prefixed strings, sorted, and prefixed
// with the snapshot's lineage. Equal renderings mean equivalent probes.
std::string RenderKey(const ColumnarRelation& cols,
                      const SelectionQuery& query) {
  std::vector<std::string> parts;
  for (const Predicate& p : query.predicates()) {
    std::string part;
    size_t attr = SIZE_MAX;
    if (auto index = cols.schema().IndexOf(p.attribute); index.ok()) {
      attr = index.ValueOrDie();
    }
    if (attr == SIZE_MAX) {
      part.push_back('A');
      part += p.attribute;
    } else {
      part.push_back('a');
      AppendU32(&part, static_cast<uint32_t>(attr));
    }
    part.push_back(static_cast<char>(p.op));
    if (p.value.is_null()) {
      part.push_back('0');
      parts.push_back(std::move(part));
      continue;
    }
    const ValueId code = p.op == CompareOp::kEq && attr != SIZE_MAX
                             ? cols.dict(attr).Lookup(p.value)
                             : ValueDict::kAbsentCode;
    if (code != ValueDict::kAbsentCode) {
      part.push_back('c');
      AppendU32(&part, code);
    } else if (p.value.is_numeric()) {
      part.push_back('n');
      AppendBits(&part, p.value.AsNum());
    } else {
      part.push_back('s');
      part += p.value.AsCat();
    }
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  AppendU64(&key, cols.lineage_uid());
  for (const std::string& part : parts) {
    AppendU32(&key, static_cast<uint32_t>(part.size()));
    key += part;
  }
  return key;
}

// Checks that keys partition queries exactly as the oracle does: equal
// renderings get equal keys, distinct renderings distinct keys.
class KeyOracle {
 public:
  void Check(const ProbeKey& key, const std::string& rendered) {
    auto by_key = by_key_.emplace(key, rendered).first;
    EXPECT_EQ(by_key->second, rendered) << "distinct queries share a key";
    auto by_render = by_render_.emplace(rendered, key).first;
    EXPECT_TRUE(by_render->second == key)
        << "equivalent queries got distinct keys";
  }

  size_t distinct() const {
    EXPECT_EQ(by_key_.size(), by_render_.size());
    return by_key_.size();
  }

 private:
  std::unordered_map<ProbeKey, std::string, ProbeKeyHash> by_key_;
  std::unordered_map<std::string, ProbeKey> by_render_;
};

// Leading rows that put -0.0 and 0.0 first in alternating attributes, NaNs
// of both signs, and nulls ahead of \p generated.
Relation WithEdgeRows(const Relation& generated) {
  const Schema& schema = generated.schema();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation out(schema);
  for (size_t edge = 0; edge < 4; ++edge) {
    std::vector<Value> values = generated.tuple(edge).values();
    bool nulled_categorical = false;
    for (size_t a = 0; a < values.size(); ++a) {
      if (schema.attribute(a).type == AttrType::kNumeric) {
        const bool even = a % 2 == 0;
        switch (edge) {
          case 0: values[a] = Value::Num(even ? -0.0 : 0.0); break;
          case 1: values[a] = Value::Num(even ? 0.0 : -0.0); break;
          case 2: values[a] = Value::Num(nan); break;
          default: values[a] = even ? Value() : Value::Num(-nan); break;
        }
      } else if (edge >= 2 && !nulled_categorical) {
        values[a] = Value();
        nulled_categorical = true;
      }
    }
    out.AppendUnchecked(Tuple(std::move(values)));
  }
  for (size_t row = 0; row < generated.NumTuples(); ++row) {
    out.AppendUnchecked(generated.tuple(row));
  }
  return out;
}

// The three forms the engine's source can take: a row store, a plain
// snapshot without one (the sharded facade), and a packed snapshot.
std::vector<std::unique_ptr<WebDatabase>> Sources(const Relation& rel) {
  std::vector<std::unique_ptr<WebDatabase>> out;
  out.push_back(std::make_unique<WebDatabase>("row_store", rel));
  out.push_back(std::make_unique<WebDatabase>("plain", rel.columnar()));
  ColumnarBuilder::Options opts;
  opts.store.block_size = 64;
  auto builder = ColumnarBuilder::Create(rel.schema(), opts);
  EXPECT_TRUE(builder.ok());
  for (size_t row = 0; row < rel.NumTuples(); ++row) {
    EXPECT_TRUE((*builder)->AppendRow(rel.tuple(row)).ok());
  }
  auto packed = (*builder)->Finish();
  EXPECT_TRUE(packed.ok());
  out.push_back(std::make_unique<WebDatabase>("packed", *packed));
  return out;
}

// For the first \p rows rows of every source and band: every subset of the
// attributes, relaxed, keys identically through RelaxedProbeKeys and
// ForQuery(RelaxTupleQuery(...)), and the oracle agrees on sharing.
void ExpectRelaxedKeysMatchQueries(const Relation& rel, size_t rows) {
  const size_t n = rel.schema().NumAttributes();
  ASSERT_LT(n, 16u);
  for (const auto& db : Sources(rel)) {
    const ColumnarRelation& cols = *db->columnar();
    for (const double band : {0.0, 0.1}) {
      SCOPED_TRACE(db->name() + " band " + std::to_string(band));
      KeyOracle oracle;
      for (uint32_t row = 0; row < rows && row < db->NumTuples(); ++row) {
        const Tuple tuple = db->MaterializeRow(row);
        const RelaxedProbeKeys keys(cols, row, tuple, band);
        for (uint32_t mask = 0; mask < (1u << n); ++mask) {
          std::vector<size_t> relaxed;
          for (size_t a = 0; a < n; ++a) {
            if (mask & (1u << a)) relaxed.push_back(a);
          }
          const SelectionQuery query =
              RelaxTupleQuery(rel.schema(), tuple, relaxed, band);
          const ProbeKey derived = keys.Key(relaxed);
          const ProbeKey expected = ProbeKey::ForQuery(cols, query);
          ASSERT_TRUE(derived == expected)
              << "row " << row << " mask " << mask << ": " << query.ToString();
          ASSERT_EQ(derived.hash(), expected.hash());
          oracle.Check(derived, RenderKey(cols, query));
        }
      }
      // Deep relaxations of different rows coincide; shallow ones do not.
      EXPECT_GT(oracle.distinct(), rows);
    }
  }
}

TEST(ProbeKeyTest, RelaxedKeysMatchQueryKeysOnCarDb) {
  CarDbSpec spec;
  spec.num_tuples = 200;
  spec.seed = 13;
  const Relation rel = WithEdgeRows(CarDbGenerator(spec).Generate());
  ExpectRelaxedKeysMatchQueries(rel, rel.NumTuples());
}

TEST(ProbeKeyTest, RelaxedKeysMatchQueryKeysOnCensusDb) {
  CensusDbSpec spec;
  spec.num_tuples = 60;
  spec.seed = 7;
  const Relation rel =
      WithEdgeRows(CensusDbGenerator(spec).Generate().relation);
  // 2^13 combinations per row: the edge rows plus a few generated ones.
  ExpectRelaxedKeysMatchQueries(rel, 8);
}

TEST(ProbeKeyTest, DistinctQueriesNeverShareAKey) {
  CarDbSpec spec;
  spec.num_tuples = 50;
  spec.seed = 5;
  const Relation rel = WithEdgeRows(CarDbGenerator(spec).Generate());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Predicate> singles = {
      Predicate::Eq("Make", Value::Cat("Toyota")),
      Predicate::Eq("Make", Value::Cat("NoSuchMake")),
      Predicate::Eq("Make", Value::Cat("NoSuchMak")),
      Predicate::Eq("Make", Value::Cat("")),
      Predicate::Eq("Make", Value::Cat("abcdefgh")),
      Predicate::Eq("Make", Value::Cat(std::string("abcdefgh\0", 9))),
      Predicate::Eq("Make", Value::Num(5.0)),
      Predicate::Eq("Make", Value()),
      Predicate("Make", CompareOp::kLt, Value::Cat("Honda")),
      Predicate("Make", CompareOp::kGe, Value()),
      Predicate::Like("Make", Value::Cat("Toyota")),
      Predicate::Eq("Model", Value::Cat("Toyota")),
      Predicate::Eq("Price", Value::Num(0.0)),
      Predicate::Eq("Price", Value::Num(-0.0)),
      Predicate::Eq("Price", Value::Num(12345.5)),
      Predicate::Eq("Price", Value::Num(nan)),
      Predicate::Eq("Price", Value::Num(-nan)),
      Predicate::Eq("Price", Value::Cat("0")),
      Predicate("Price", CompareOp::kGe, Value::Num(0.0)),
      Predicate("Price", CompareOp::kGe, Value::Num(-0.0)),
      Predicate("Price", CompareOp::kLe, Value::Num(0.0)),
      Predicate("Price", CompareOp::kGe, Value::Num(nan)),
      Predicate("Mileage", CompareOp::kGe, Value::Num(0.0)),
      Predicate::Eq("Nope", Value::Cat("x")),
      Predicate::Eq("Nope2", Value::Cat("x")),
      Predicate::Eq("Nope", Value::Num(1.0)),
      Predicate::Eq("", Value::Cat("x")),
  };
  std::vector<SelectionQuery> queries = {SelectionQuery()};
  for (const Predicate& a : singles) {
    queries.push_back(SelectionQuery({a}));
    for (const Predicate& b : singles) {
      queries.push_back(SelectionQuery({a, b}));  // both orders, duplicates
    }
  }
  for (const auto& db : Sources(rel)) {
    SCOPED_TRACE(db->name());
    const ColumnarRelation& cols = *db->columnar();
    KeyOracle oracle;
    for (const SelectionQuery& q : queries) {
      oracle.Check(ProbeKey::ForQuery(cols, q), RenderKey(cols, q));
    }
    // Reordered pairs and -0.0 ≡ 0.0 (one dictionary code) share keys.
    EXPECT_LT(oracle.distinct(), queries.size());
  }
}

TEST(ProbeKeyTest, SnapshotsNeverShareKeys) {
  CarDbSpec spec;
  spec.num_tuples = 50;
  const Relation rel = CarDbGenerator(spec).Generate();
  const SelectionQuery q({Predicate::Eq("Make", Value::Cat("Toyota"))});
  const auto sources = Sources(rel);
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < sources.size(); ++j) {
      if (sources[i]->columnar() == sources[j]->columnar()) continue;
      EXPECT_FALSE(ProbeKey::ForQuery(*sources[i]->columnar(), q) ==
                   ProbeKey::ForQuery(*sources[j]->columnar(), q));
    }
  }
}

TEST(ProbeKeyTest, LongKeysSpillOutOfLineAndCopy) {
  CensusDbSpec spec;
  spec.num_tuples = 20;
  const Relation rel = CensusDbGenerator(spec).Generate().relation;
  const WebDatabase db("census", rel);
  const Tuple tuple = db.MaterializeRow(0);
  const SelectionQuery full = RelaxTupleQuery(rel.schema(), tuple, {}, 0.1);
  const ProbeKey key = ProbeKey::ForQuery(*db.columnar(), full);
  ASSERT_GT(key.size(), ProbeKey::kInlineWords);

  ProbeKey copy = key;
  EXPECT_TRUE(copy == key);
  ProbeKey moved = std::move(copy);
  EXPECT_TRUE(moved == key);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  ProbeKey short_key = ProbeKey::ForQuery(
      *db.columnar(), SelectionQuery({full.predicates()[0]}));
  ASSERT_LE(short_key.size(), ProbeKey::kInlineWords);
  short_key = moved;
  EXPECT_TRUE(short_key == key);
  moved = ProbeKey();
  EXPECT_FALSE(moved == key);
}

}  // namespace
}  // namespace aimq
