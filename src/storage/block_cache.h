// BlockCache: the memory-budget manager for decoded code blocks.
//
// Decoded blocks (plain uint32_t vectors) are the only large transient the
// packed path keeps in RAM beside the bit-packed payloads themselves. The
// cache enforces `--allowed-memory` as a byte budget over resident decoded
// blocks: lookups move a block to the MRU end, misses unpack outside the
// lock and insert, and inserts evict from the LRU end until the budget holds
// again.
//
// Entries are shared_ptrs, so eviction never invalidates a block a reader is
// still holding; the budget bounds what the *cache* keeps alive, which is
// the invariant the eviction tests assert.

#ifndef AIMQ_STORAGE_BLOCK_CACHE_H_
#define AIMQ_STORAGE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace aimq {
namespace storage {

/// A decoded (unpacked) block of codes, shared between cache and readers.
using DecodedBlock = std::shared_ptr<const std::vector<uint32_t>>;

/// Cache key: one store's (column, block index) pair.
using BlockKey = uint64_t;

inline BlockKey MakeBlockKey(size_t col, size_t block) {
  return static_cast<uint64_t>(col) << 40 | static_cast<uint64_t>(block);
}

/// LRU cache of decoded blocks with a byte budget.
class BlockCache {
 public:
  /// \p budget_bytes bounds resident decoded bytes; 0 means unlimited
  /// (nothing is ever evicted).
  explicit BlockCache(size_t budget_bytes) : budget_bytes_(budget_bytes) {}

  /// Returns the cached block or loads it via \p loader, which must return
  /// a block (called without the cache lock held; concurrent misses on the same key may load twice —
  /// blocks are immutable, so the duplicate is dropped, not wrong).
  DecodedBlock GetOrLoad(BlockKey key,
                         const std::function<DecodedBlock()>& loader);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t resident_bytes = 0;  ///< decoded bytes held
    /// Wall time spent inside miss loaders (unpack), cumulatively — the
    /// decode cost the cache failed to absorb.
    uint64_t decode_nanos = 0;
  };
  Stats GetStats() const;

  size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Entry {
    DecodedBlock block;
    size_t bytes = 0;
    std::list<BlockKey>::iterator lru_it;
  };

  // Requires mu_ held. Evicts LRU entries until the budget holds.
  void EvictLocked();

  const size_t budget_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<BlockKey, Entry> entries_;
  std::list<BlockKey> lru_;  // front = LRU, back = MRU
  size_t resident_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t decode_nanos_ = 0;
};

}  // namespace storage
}  // namespace aimq

#endif  // AIMQ_STORAGE_BLOCK_CACHE_H_
