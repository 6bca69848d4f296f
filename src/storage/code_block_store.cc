#include "storage/code_block_store.h"

#include <atomic>
#include <bit>
#include <utility>

namespace aimq {
namespace storage {
namespace {

// Store ids start at 1: id 0 marks an empty thread-local slot.
std::atomic<uint64_t> g_next_store_id{1};

size_t RoundUpPow2(size_t v) {
  if (v <= 64) return 64;
  return std::bit_ceil(v);
}

}  // namespace

CodeBlockStore::CodeBlockStore(BlockStoreOptions opts, size_t num_cols)
    : opts_(std::move(opts)),
      block_size_(RoundUpPow2(opts_.block_size)),
      block_shift_(static_cast<size_t>(std::countr_zero(block_size_))),
      block_mask_(block_size_ - 1),
      id_(g_next_store_id.fetch_add(1, std::memory_order_relaxed)),
      columns_(num_cols),
      cache_(opts_.budget_bytes) {}

std::unique_ptr<CodeBlockStore> CodeBlockStore::Create(BlockStoreOptions opts,
                                                       size_t num_cols) {
  return std::unique_ptr<CodeBlockStore>(
      new CodeBlockStore(std::move(opts), num_cols));
}

Status CodeBlockStore::Append(size_t col, const uint32_t* codes, size_t n) {
  if (built_) {
    return Status::FailedPrecondition("block store is frozen (FinishBuild)");
  }
  if (col >= columns_.size()) {
    return Status::OutOfRange("block store column out of range");
  }
  Column& column = columns_[col];
  size_t done = 0;
  while (done < n) {
    const size_t room = block_size_ - column.pending.size();
    const size_t take = n - done < room ? n - done : room;
    column.pending.insert(column.pending.end(), codes + done,
                          codes + done + take);
    done += take;
    if (column.pending.size() == block_size_) SealBlock(col);
  }
  return Status::OK();
}

void CodeBlockStore::SealBlock(size_t col) {
  Column& column = columns_[col];
  if (column.pending.empty()) return;
  BlockMeta meta;
  meta.count = static_cast<uint32_t>(column.pending.size());
  const PackSpec spec = Analyze(column.pending.data(), column.pending.size());
  meta.base = spec.base;
  meta.width = spec.width;
  meta.packed.resize(PackedBytes(spec.width, meta.count));
  Pack(column.pending.data(), meta.count, spec, meta.packed.data());
  stored_bytes_total_ += meta.packed.size();
  column.blocks.push_back(std::move(meta));
  column.pending.clear();
}

Status CodeBlockStore::FinishBuild() {
  if (built_) return Status::OK();
  for (size_t col = 0; col < columns_.size(); ++col) SealBlock(col);
  size_t rows = 0;
  for (size_t col = 0; col < columns_.size(); ++col) {
    size_t col_rows = 0;
    for (const BlockMeta& m : columns_[col].blocks) col_rows += m.count;
    if (col == 0) {
      rows = col_rows;
    } else if (col_rows != rows) {
      return Status::FailedPrecondition(
          "block store columns have unequal row counts");
    }
  }
  num_rows_ = rows;
  built_ = true;
  return Status::OK();
}

DecodedBlock CodeBlockStore::LoadBlock(size_t col, size_t block) const {
  const BlockMeta& meta = columns_[col].blocks[block];
  auto out = std::make_shared<std::vector<uint32_t>>(meta.count);
  Unpack(meta.packed.data(), meta.count, PackSpec{meta.base, meta.width},
         out->data());
  return out;
}

DecodedBlock CodeBlockStore::GetBlock(size_t col, size_t block) const {
  return cache_.GetOrLoad(MakeBlockKey(col, block),
                          [&] { return LoadBlock(col, block); });
}

BlockStoreStats CodeBlockStore::GetStats() const {
  BlockStoreStats s;
  s.num_rows = num_rows_;
  s.num_cols = columns_.size();
  s.num_blocks = NumBlocks();
  s.plain_bytes = num_rows_ * columns_.size() * sizeof(uint32_t);
  s.stored_bytes = stored_bytes_total_;
  s.cache = cache_.GetStats();
  return s;
}

}  // namespace storage
}  // namespace aimq
