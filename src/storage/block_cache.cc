#include "storage/block_cache.h"

#include <chrono>

namespace aimq {
namespace storage {
DecodedBlock BlockCache::GetOrLoad(
    BlockKey key, const std::function<DecodedBlock()>& loader) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.end(), lru_, it->second.lru_it);
      return it->second.block;
    }
    ++misses_;
  }
  // Load outside the lock: unpacking is the slow part, and holding the
  // mutex across it would serialize concurrent readers. The loader is timed
  // so the scrapeable decode cost covers exactly this unserialized window.
  const auto load_start = std::chrono::steady_clock::now();
  DecodedBlock block = loader();
  const uint64_t load_nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - load_start)
          .count());
  std::lock_guard<std::mutex> lock(mu_);
  decode_nanos_ += load_nanos;
  if (entries_.find(key) == entries_.end()) {
    Entry entry;
    entry.bytes = block->size() * sizeof(uint32_t);
    entry.block = block;
    entry.lru_it = lru_.insert(lru_.end(), key);
    resident_bytes_ += entry.bytes;
    entries_.emplace(key, std::move(entry));
    EvictLocked();
  }
  return block;
}

BlockCache::Stats BlockCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  s.decode_nanos = decode_nanos_;
  return s;
}

void BlockCache::EvictLocked() {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_ && !lru_.empty()) {
    const BlockKey victim = lru_.front();
    lru_.pop_front();
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);
    ++evictions_;
  }
}

}  // namespace storage
}  // namespace aimq
