// CodeBlockStore: block-sliced, bit-packed storage for the code columns of
// one relation snapshot, with an optional codec layer, an optional spill
// file, and a byte-budgeted cache of decoded blocks.
//
// Layout: every column is cut into fixed-size row blocks (power-of-two rows
// per block, same grid for all columns, last block ragged). Each block is
// bit-packed against its own frame of reference (storage/bitpack.h), then
// optionally run through a BlockCodec; the stored bytes either stay in
// memory or are appended to a SpillFile. Reads go through a BlockCache that
// enforces `--allowed-memory` over decoded bytes, plus a small thread-local
// direct-mapped mini-cache so random At() probes (similarity scoring) skip
// the cache mutex on repeat hits to the same block.
//
// Build protocol: Create() -> Append() chunks per column (any chunk sizes;
// columns are buffered independently) -> FinishBuild(). After FinishBuild
// the store is immutable and all read paths are safe to use concurrently.
//
// Error model: build-time and reopen failures return Status. Read-path
// failures after a successful build (spill I/O error, corrupt payload) are
// unrecoverable storage corruption: GetBlock/At crash with a diagnostic
// rather than silently degrade answers. TryGetBlock exposes the Status for
// tests that exercise the corruption path.

#ifndef AIMQ_STORAGE_CODE_BLOCK_STORE_H_
#define AIMQ_STORAGE_CODE_BLOCK_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/bitpack.h"
#include "storage/block_cache.h"
#include "storage/block_codec.h"
#include "storage/spill_file.h"
#include "util/status.h"

namespace aimq {
namespace storage {

/// Build-time configuration for one CodeBlockStore.
struct BlockStoreOptions {
  /// Rows per block; rounded up to a power of two (and at least 64).
  size_t block_size = 1u << 16;

  /// Codec applied to each packed block (skipped per block when it does not
  /// shrink the payload, or the payload is under codec_min_bytes).
  CodecKind codec = CodecKind::kNone;
  size_t codec_min_bytes = 64;

  /// Byte budget for resident decoded blocks (`--allowed-memory`); 0 means
  /// unlimited. Pinned blocks may exceed it.
  size_t budget_bytes = 0;

  /// When non-empty, stored block bytes are appended to this file and paged
  /// in on demand; when empty, they stay in memory (still packed).
  std::string spill_path;
};

/// Aggregate footprint and traffic counters for one store.
struct BlockStoreStats {
  size_t num_rows = 0;
  size_t num_cols = 0;
  size_t num_blocks = 0;      ///< per column
  size_t plain_bytes = 0;     ///< 4 bytes/code, the uncompressed baseline
  size_t packed_bytes = 0;    ///< bit-packed payloads before any codec
  size_t stored_bytes = 0;    ///< bytes actually kept (post-codec)
  size_t spilled_bytes = 0;   ///< portion of stored_bytes living on disk
  CodecKind codec = CodecKind::kNone;
  BlockCache::Stats cache;
};

namespace detail {
/// Thread-local direct-mapped block handle cache (see At()).
struct TlsBlockSlot {
  uint64_t store_id = 0;  // store ids start at 1, so 0 means empty
  uint64_t key = 0;
  DecodedBlock block;
  const uint32_t* data = nullptr;
};
inline constexpr size_t kTlsBlockSlots = 64;
inline thread_local TlsBlockSlot g_tls_block_slots[kTlsBlockSlots];
}  // namespace detail

/// Block-sliced bit-packed store for \p num_cols code columns.
class CodeBlockStore {
 public:
  /// Creates an empty store (and its spill file, if configured).
  static Result<std::unique_ptr<CodeBlockStore>> Create(BlockStoreOptions opts,
                                                        size_t num_cols);
  CodeBlockStore(const CodeBlockStore&) = delete;
  CodeBlockStore& operator=(const CodeBlockStore&) = delete;

  /// Appends \p n codes to column \p col. Chunks of different columns may
  /// interleave freely; each column buffers up to one block.
  Status Append(size_t col, const uint32_t* codes, size_t n);

  /// Seals trailing partial blocks and freezes the store. All columns must
  /// have received the same number of codes.
  Status FinishBuild();

  bool built() const { return built_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return columns_.size(); }
  size_t block_size() const { return block_size_; }
  /// Blocks per column.
  size_t NumBlocks() const {
    return (num_rows_ + block_size_ - 1) >> block_shift_;
  }
  /// First row of block \p b.
  size_t BlockFirstRow(size_t b) const { return b << block_shift_; }
  /// Rows in block \p b (== block_size() except possibly the last block).
  size_t BlockRows(size_t b) const {
    const size_t first = BlockFirstRow(b);
    const size_t remaining = num_rows_ - first;
    return remaining < block_size_ ? remaining : block_size_;
  }

  /// Decoded block, via the cache. Crashes on storage corruption.
  DecodedBlock GetBlock(size_t col, size_t block) const;

  /// Status-returning variant of GetBlock, for corruption tests.
  Result<DecodedBlock> TryGetBlock(size_t col, size_t block) const;

  /// Random access to one code, through the thread-local mini-cache. Safe to
  /// call concurrently after FinishBuild.
  uint32_t At(size_t col, size_t row) const {
    const size_t b = row >> block_shift_;
    const uint64_t key = MakeBlockKey(col, b);
    detail::TlsBlockSlot& slot =
        detail::g_tls_block_slots[(id_ * 0x9e3779b9ull + key) &
                                  (detail::kTlsBlockSlots - 1)];
    if (slot.store_id != id_ || slot.key != key) {
      slot.block = GetBlock(col, b);
      slot.data = slot.block->data();
      slot.store_id = id_;
      slot.key = key;
    }
    return slot.data[row & block_mask_];
  }

  /// Pins a block into the cache (never evicted until Unpin).
  Status Pin(size_t col, size_t block);
  void Unpin(size_t col, size_t block);

  /// Sequential per-block reader for one column.
  class Cursor {
   public:
    /// Advances to the next block; false at end of column.
    bool Next() {
      if (next_block_ >= store_->NumBlocks()) {
        cur_.reset();
        return false;
      }
      begin_row_ = store_->BlockFirstRow(next_block_);
      size_ = store_->BlockRows(next_block_);
      cur_ = store_->GetBlock(col_, next_block_);
      ++next_block_;
      return true;
    }
    size_t begin_row() const { return begin_row_; }
    size_t size() const { return size_; }
    const uint32_t* data() const { return cur_->data(); }

   private:
    friend class CodeBlockStore;
    Cursor(const CodeBlockStore* store, size_t col, size_t first_block)
        : store_(store), col_(col), next_block_(first_block) {}
    const CodeBlockStore* store_;
    size_t col_;
    size_t next_block_;
    size_t begin_row_ = 0;
    size_t size_ = 0;
    DecodedBlock cur_;
  };
  /// Cursor over column \p col starting at block \p first_block.
  Cursor ColumnCursor(size_t col, size_t first_block = 0) const {
    return Cursor(this, col, first_block);
  }

  /// Closes and reopens the spill file (test hook proving answers survive a
  /// cold restart). Drops all unpinned cached blocks.
  Status ReopenSpill();

  BlockStoreStats GetStats() const;

 private:
  struct BlockMeta {
    uint32_t count = 0;         // rows in the block
    uint32_t base = 0;          // frame of reference
    uint8_t width = 0;          // bits per entry
    uint8_t codec_used = 0;     // CodecKind actually applied to this block
    uint32_t packed_bytes = 0;  // payload size before codec
    uint32_t stored_bytes = 0;  // payload size as kept
    uint64_t spill_offset = 0;  // valid when spilling
    std::vector<uint8_t> mem;   // the stored bytes, when not spilling
  };

  struct Column {
    std::vector<uint32_t> pending;  // buffered codes of the open block
    std::vector<BlockMeta> blocks;
  };

  CodeBlockStore(BlockStoreOptions opts, size_t num_cols);

  Status SealBlock(size_t col);
  Result<DecodedBlock> LoadBlock(size_t col, size_t block) const;

  BlockStoreOptions opts_;
  size_t block_size_ = 0;
  size_t block_shift_ = 0;
  size_t block_mask_ = 0;
  uint64_t id_ = 0;  // process-unique, keys the thread-local mini-cache
  std::vector<Column> columns_;
  std::unique_ptr<SpillFile> spill_;
  mutable BlockCache cache_;
  size_t num_rows_ = 0;
  size_t packed_bytes_total_ = 0;
  size_t stored_bytes_total_ = 0;
  bool built_ = false;
};

}  // namespace storage
}  // namespace aimq

#endif  // AIMQ_STORAGE_CODE_BLOCK_STORE_H_
