// Oracle tests for the packed (block-stored) ColumnarRelation mode: for one
// row stream, the streaming ColumnarBuilder must produce a snapshot
// bit-identical to the plain in-memory constructor — same dictionaries, same
// codes, same numerics, same canonical rows, same engine answers — with
// every decoded block resident and under a budget that evicts. Also covers
// the satellites that feed the packed path: CarDB streaming determinism,
// ValueDict::Reserve, and ParseByteSize.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/knowledge.h"
#include "datagen/cardb.h"
#include "relation/columnar.h"
#include "relation/relation.h"
#include "relation/value_dict.h"
#include "util/rng.h"
#include "util/strings.h"
#include "webdb/web_database.h"

namespace aimq {
namespace {

Relation SmallCarDb(size_t n, uint64_t seed = 2006) {
  CarDbSpec spec;
  spec.num_tuples = n;
  spec.seed = seed;
  return CarDbGenerator(spec).Generate();
}

Result<std::shared_ptr<const ColumnarRelation>> PackedCarDb(
    size_t n, ColumnarBuilder::Options opts, uint64_t seed = 2006) {
  CarDbSpec spec;
  spec.num_tuples = n;
  spec.seed = seed;
  return CarDbGenerator(spec).GenerateColumnar(opts);
}

// Full structural equality of a packed snapshot against the plain oracle.
void ExpectBitIdentical(const ColumnarRelation& plain,
                        const ColumnarRelation& packed) {
  ASSERT_EQ(plain.NumRows(), packed.NumRows());
  ASSERT_EQ(plain.NumAttributes(), packed.NumAttributes());
  for (size_t a = 0; a < plain.NumAttributes(); ++a) {
    ASSERT_EQ(plain.dict(a).size(), packed.dict(a).size()) << "attr " << a;
    for (uint32_t c = 0; c < plain.dict(a).size(); ++c) {
      EXPECT_EQ(plain.dict(a).value(c), packed.dict(a).value(c))
          << "attr " << a << " code " << c;
    }
  }
  const bool numeric_check = plain.NumRows() < 1u << 20;
  for (size_t a = 0; a < plain.NumAttributes(); ++a) {
    const bool is_num = plain.schema().attribute(a).type == AttrType::kNumeric;
    for (size_t r = 0; r < plain.NumRows(); ++r) {
      ASSERT_EQ(plain.CodeAt(a, r), packed.CodeAt(a, r))
          << "attr " << a << " row " << r;
      if (is_num && numeric_check) {
        ASSERT_EQ(plain.NumAt(a, r), packed.NumAt(a, r))
            << "attr " << a << " row " << r;
      }
    }
  }
  for (size_t r = 0; r < plain.NumRows(); ++r) {
    ASSERT_EQ(plain.CanonicalRow(static_cast<uint32_t>(r)),
              packed.CanonicalRow(static_cast<uint32_t>(r)))
        << "row " << r;
  }
}

TEST(PackedRelationTest, BitIdenticalToPlainInMemory) {
  const Relation rows = SmallCarDb(5000);
  const ColumnarRelation plain(rows);
  auto packed = PackedCarDb(5000, ColumnarBuilder::Options{});
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  ASSERT_TRUE((*packed)->packed());
  ExpectBitIdentical(plain, **packed);
}

TEST(PackedRelationTest, BitIdenticalUnderAnEvictingBudget) {
  const Relation rows = SmallCarDb(5000);
  const ColumnarRelation plain(rows);
  ColumnarBuilder::Options opts;
  opts.store.block_size = 512;  // many blocks at this scale
  opts.store.budget_bytes = 64 << 10;  // far below the decoded footprint
  auto packed = PackedCarDb(5000, opts);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  ExpectBitIdentical(plain, **packed);
  const storage::BlockStoreStats stats = (*packed)->block_store()->GetStats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.resident_bytes, opts.store.budget_bytes);

  // A second pass re-decodes the evicted blocks: answers unchanged.
  ExpectBitIdentical(plain, **packed);
  EXPECT_GT((*packed)->block_store()->GetStats().cache.evictions,
            stats.cache.evictions);
}

TEST(PackedRelationTest, WindowScanMatchesRandomAccess) {
  ColumnarBuilder::Options opts;
  opts.store.block_size = 256;
  auto packed = PackedCarDb(3000, opts);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  const ColumnarRelation& cols = **packed;
  std::vector<size_t> attrs;
  for (size_t a = 0; a < cols.NumAttributes(); ++a) attrs.push_back(a);
  size_t seen = 0;
  ColumnarRelation::CodeWindow w;
  for (auto cur = cols.ScanBlocks(attrs); cur.Next(&w);) {
    ASSERT_EQ(w.begin_row, seen);
    for (size_t i = 0; i < w.num_rows; ++i) {
      for (size_t j = 0; j < attrs.size(); ++j) {
        ASSERT_EQ(w.codes[j][i], cols.CodeAt(attrs[j], w.begin_row + i));
      }
    }
    seen += w.num_rows;
  }
  EXPECT_EQ(seen, cols.NumRows());
}

TEST(PackedRelationTest, MaterializeTupleMatchesGenerate) {
  const Relation rows = SmallCarDb(1000);
  ColumnarBuilder::Options opts;
  opts.store.block_size = 128;
  auto packed = PackedCarDb(1000, opts);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  for (size_t r = 0; r < rows.NumTuples(); ++r) {
    EXPECT_EQ(rows.tuple(r), (*packed)->MaterializeTuple(r)) << "row " << r;
  }
}

// A WebDatabase built from a packed snapshot under a tiny budget must answer
// imprecise queries exactly like the row-store database, through offline
// learning and guided relaxation alike — and keep doing so when every probe
// scans the evicting store afresh.
TEST(PackedRelationEngineTest, AnswersIdenticalToPlainDatabase) {
  constexpr size_t kTuples = 2000;
  AimqOptions options;
  options.tsim = 0.5;
  options.top_k = 10;
  options.tane.error_threshold = 0.30;
  options.tane.max_lhs_size = 3;
  options.tane.max_key_size = 4;
  options.collector.sample_size = 500;

  WebDatabase plain_db("CarDB", SmallCarDb(kTuples));
  auto plain_knowledge = BuildKnowledge(plain_db, options);
  ASSERT_TRUE(plain_knowledge.ok()) << plain_knowledge.status().ToString();
  AimqEngine plain_engine(&plain_db, plain_knowledge.TakeValue(), options);

  ColumnarBuilder::Options copts;
  copts.store.block_size = 256;
  copts.store.budget_bytes = 32 << 10;
  auto packed = PackedCarDb(kTuples, copts);
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  WebDatabase packed_db("CarDB", *packed);
  EXPECT_EQ(packed_db.NumTuples(), kTuples);
  auto packed_knowledge = BuildKnowledge(packed_db, options);
  ASSERT_TRUE(packed_knowledge.ok()) << packed_knowledge.status().ToString();
  AimqEngine packed_engine(&packed_db, packed_knowledge.TakeValue(), options);

  Rng rng(7);
  const std::vector<size_t> anchors =
      rng.SampleWithoutReplacement(kTuples, 3);
  auto run_queries = [&](AimqEngine& engine, WebDatabase& db) {
    std::vector<std::vector<RankedAnswer>> all;
    for (size_t row : anchors) {
      auto result =
          engine.FindSimilar(db.MaterializeRow(static_cast<uint32_t>(row)),
                             10, options.tsim, RelaxationStrategy::kGuided);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      all.push_back(result.ok() ? result.TakeValue()
                                : std::vector<RankedAnswer>{});
    }
    return all;
  };
  auto expect_same = [](const std::vector<std::vector<RankedAnswer>>& a,
                        const std::vector<std::vector<RankedAnswer>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].size(), b[i].size()) << "anchor " << i;
      for (size_t r = 0; r < a[i].size(); ++r) {
        EXPECT_EQ(a[i][r].tuple, b[i][r].tuple);
        EXPECT_EQ(a[i][r].similarity, b[i][r].similarity);
      }
    }
  };

  const auto plain_answers = run_queries(plain_engine, plain_db);
  const auto packed_answers = run_queries(packed_engine, packed_db);
  expect_same(plain_answers, packed_answers);

  // Fresh scans through the evicting store; same engine, same answers.
  packed_engine.SetProbeCache(nullptr);
  expect_same(plain_answers, run_queries(packed_engine, packed_db));
  EXPECT_GT(packed_db.columnar()->block_store()->GetStats().cache.evictions,
            0u);
}

TEST(CarDbStreamTest, StreamTuplesMatchesGenerate) {
  CarDbSpec spec;
  spec.num_tuples = 1500;
  spec.seed = 99;
  const CarDbGenerator gen(spec);
  const Relation batch = gen.Generate();
  std::vector<Tuple> streamed;
  ASSERT_TRUE(gen.StreamTuples([&](std::vector<Value>&& values) {
                   streamed.emplace_back(std::move(values));
                   return Status::OK();
                 })
                  .ok());
  ASSERT_EQ(streamed.size(), batch.NumTuples());
  for (size_t r = 0; r < streamed.size(); ++r) {
    EXPECT_EQ(batch.tuple(r), streamed[r]) << "row " << r;
  }
}

TEST(CarDbStreamTest, EmitterErrorAborts) {
  CarDbSpec spec;
  spec.num_tuples = 100;
  const CarDbGenerator gen(spec);
  size_t emitted = 0;
  Status st = gen.StreamTuples([&](std::vector<Value>&&) {
    if (++emitted == 10) return Status::InvalidArgument("stop");
    return Status::OK();
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(emitted, 10u);
}

TEST(ValueDictReserveTest, ReserveDoesNotChangeCodes) {
  const Relation rows = SmallCarDb(500);
  ValueDict baseline;
  ValueDict reserved;
  reserved.Reserve(1024);
  for (size_t r = 0; r < rows.NumTuples(); ++r) {
    const Value& v = rows.tuple(r).At(CarDbGenerator::kModel);
    EXPECT_EQ(baseline.Intern(v), reserved.Intern(v));
  }
  ASSERT_EQ(baseline.size(), reserved.size());
  for (uint32_t c = 0; c < baseline.size(); ++c) {
    EXPECT_EQ(baseline.value(c), reserved.value(c));
  }
}

TEST(ParseByteSizeTest, AcceptsSizesAndSuffixes) {
  struct Case {
    const char* in;
    size_t want;
  };
  const Case cases[] = {
      {"0", 0},
      {"123", 123},
      {"123b", 123},
      {"1k", 1024},
      {"1kb", 1024},
      {"1kib", 1024},
      {"64MB", 64u << 20},
      {"64mb", 64u << 20},
      {"2g", 2ull << 30},
      {"1t", 1ull << 40},
      {"  10 ", 10},
  };
  for (const Case& c : cases) {
    size_t got = SIZE_MAX;
    EXPECT_TRUE(ParseByteSize(c.in, &got)) << c.in;
    EXPECT_EQ(got, c.want) << c.in;
  }
}

TEST(ParseByteSizeTest, RejectsMalformedAndOverflow) {
  const char* bad[] = {"",   "abc",  "12q",   "mb",  "-1",
                       "1.5", "1 0k", "99999999999999999999", "17t0"};
  for (const char* in : bad) {
    size_t got = 0;
    EXPECT_FALSE(ParseByteSize(in, &got)) << in;
  }
  size_t got = 0;
  EXPECT_FALSE(ParseByteSize("999999999999t", &got));  // shift overflow
}

}  // namespace
}  // namespace aimq
