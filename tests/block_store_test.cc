// CodeBlockStore tests: build/scan/random-access equivalence against a plain
// vector reference, budget-driven eviction, cursor iteration, and build-time
// misuse.

#include "storage/code_block_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace aimq {
namespace storage {
namespace {

// Reference columns: clustered codes with nulls sprinkled in, sized to span
// several blocks including a ragged final one.
std::vector<std::vector<uint32_t>> MakeReference(size_t cols, size_t rows,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> ref(cols);
  for (size_t c = 0; c < cols; ++c) {
    ref[c].reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t roll = rng.Next() % 20;
      if (roll == 0) {
        ref[c].push_back(kNullCode);
      } else {
        // Cluster around a per-column center so frame-of-reference bites.
        ref[c].push_back(static_cast<uint32_t>(1000 * c + rng.Next() % 97));
      }
    }
  }
  return ref;
}

std::unique_ptr<CodeBlockStore> BuildStore(
    const std::vector<std::vector<uint32_t>>& ref,
    const BlockStoreOptions& opts) {
  std::unique_ptr<CodeBlockStore> store =
      CodeBlockStore::Create(opts, ref.size());
  // Interleave chunked appends across columns to exercise buffering.
  const size_t rows = ref.empty() ? 0 : ref[0].size();
  const size_t chunk = 100;
  for (size_t start = 0; start < rows; start += chunk) {
    const size_t n = start + chunk <= rows ? chunk : rows - start;
    for (size_t c = 0; c < ref.size(); ++c) {
      EXPECT_TRUE(store->Append(c, ref[c].data() + start, n).ok());
    }
  }
  EXPECT_TRUE(store->FinishBuild().ok());
  return store;
}

void ExpectStoreMatchesReference(
    const CodeBlockStore& store,
    const std::vector<std::vector<uint32_t>>& ref) {
  ASSERT_EQ(store.num_cols(), ref.size());
  for (size_t c = 0; c < ref.size(); ++c) {
    ASSERT_EQ(store.num_rows(), ref[c].size());
    // Cursor scan.
    auto cursor = store.ColumnCursor(c);
    size_t row = 0;
    while (cursor.Next()) {
      ASSERT_EQ(cursor.begin_row(), row);
      for (size_t i = 0; i < cursor.size(); ++i, ++row) {
        ASSERT_EQ(cursor.data()[i], ref[c][row])
            << "col=" << c << " row=" << row;
      }
    }
    ASSERT_EQ(row, ref[c].size());
    // Random access (striding to touch every block out of order).
    for (size_t r = 0; r < ref[c].size(); r += 37) {
      ASSERT_EQ(store.At(c, r), ref[c][r]) << "col=" << c << " row=" << r;
    }
  }
}

TEST(BlockStoreTest, InMemoryRoundTripAcrossBlockBoundaries) {
  // 777 rows with 64-row blocks: 12 full blocks + a ragged 9-row tail.
  const auto ref = MakeReference(3, 777, 11);
  BlockStoreOptions opts;
  opts.block_size = 64;
  auto store = BuildStore(ref, opts);
  EXPECT_EQ(store->block_size(), 64u);
  EXPECT_EQ(store->NumBlocks(), 13u);
  EXPECT_EQ(store->BlockRows(12), 9u);
  ExpectStoreMatchesReference(*store, ref);
}

TEST(BlockStoreTest, PackedFootprintBeatsPlain) {
  const auto ref = MakeReference(4, 20'000, 5);
  BlockStoreOptions opts;
  opts.block_size = 1024;
  auto store = BuildStore(ref, opts);
  const BlockStoreStats stats = store->GetStats();
  EXPECT_EQ(stats.plain_bytes, 4u * 4u * 20'000u);
  // 97 distinct clustered values need ~7 bits, not 32.
  EXPECT_LT(stats.stored_bytes, stats.plain_bytes / 2);
}

TEST(BlockStoreTest, BudgetEvictsColdBlocks) {
  const auto ref = MakeReference(1, 64 * 64, 9);  // 64 blocks of 64 rows
  BlockStoreOptions opts;
  opts.block_size = 64;
  // Budget fits ~4 decoded blocks (64 rows * 4 bytes = 256B each).
  opts.budget_bytes = 4 * 64 * sizeof(uint32_t);
  auto store = BuildStore(ref, opts);
  ExpectStoreMatchesReference(*store, ref);
  const BlockStoreStats stats = store->GetStats();
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.resident_bytes, opts.budget_bytes);
  // Touch every block again: with only 4 resident out of 64, these are
  // (mostly) cache misses, unpacked again from the packed bytes.
  const uint64_t misses_before = stats.cache.misses;
  for (size_t b = 0; b < store->NumBlocks(); ++b) {
    store->GetBlock(0, b);
  }
  EXPECT_GT(store->GetStats().cache.misses, misses_before);
}

TEST(BlockStoreTest, UnequalColumnLengthsRejected) {
  auto store = CodeBlockStore::Create(BlockStoreOptions{}, 2);
  const std::vector<uint32_t> codes(10, 1);
  ASSERT_TRUE(store->Append(0, codes.data(), codes.size()).ok());
  ASSERT_TRUE(store->Append(1, codes.data(), codes.size() - 1).ok());
  EXPECT_FALSE(store->FinishBuild().ok());
}

TEST(BlockStoreTest, AppendAfterFinishRejected) {
  auto store = CodeBlockStore::Create(BlockStoreOptions{}, 1);
  const std::vector<uint32_t> codes(10, 1);
  ASSERT_TRUE(store->Append(0, codes.data(), codes.size()).ok());
  ASSERT_TRUE(store->FinishBuild().ok());
  EXPECT_FALSE(store->Append(0, codes.data(), codes.size()).ok());
}

TEST(BlockStoreTest, EmptyStore) {
  auto store = CodeBlockStore::Create(BlockStoreOptions{}, 2);
  ASSERT_TRUE(store->FinishBuild().ok());
  EXPECT_EQ(store->num_rows(), 0u);
  EXPECT_EQ(store->NumBlocks(), 0u);
  auto cursor = store->ColumnCursor(0);
  EXPECT_FALSE(cursor.Next());
}

}  // namespace
}  // namespace storage
}  // namespace aimq
