// List-backed LRU cache: the engine's Answer() result cache and its
// expansion memo (src/core/engine.h). Each key is stored once, in its list
// node; the hash index points at it. Not thread-safe by itself — callers
// that share an LruCache across threads wrap it in a mutex. (The probe cache
// keeps its own single-allocation table instead: src/webdb/probe_cache.h.)

#ifndef AIMQ_UTIL_LRU_H_
#define AIMQ_UTIL_LRU_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace aimq {

/// \brief Bounded map with least-recently-used eviction.
///
/// Get() and Put() refresh recency. Capacity 0 means "hold nothing": every
/// Put is dropped, every Get misses.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity = 0) : capacity_(capacity) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  /// Entries evicted to make room since construction / the last Clear().
  uint64_t evictions() const { return evictions_; }

  /// Shrinking evicts the least recently used entries first.
  void set_capacity(size_t capacity) {
    capacity_ = capacity;
    EvictDownToCapacity();
  }

  /// Pointer to the cached value (refreshed to most-recent), or nullptr on
  /// miss. The pointer is invalidated by the next non-const call.
  V* Get(const K& key) {
    auto it = index_.find(KeyRef{&key});
    if (it == index_.end()) return nullptr;
    items_.splice(items_.begin(), items_, it->second);
    return &it->second->second;
  }

  /// Get() without refreshing recency (diagnostics/tests).
  const V* Peek(const K& key) const {
    auto it = index_.find(KeyRef{&key});
    return it == index_.end() ? nullptr : &it->second->second;
  }

  /// Inserts or overwrites, refreshing recency and evicting as needed.
  void Put(K key, V value) {
    if (capacity_ == 0) return;
    auto it = index_.find(KeyRef{&key});
    if (it != index_.end()) {
      it->second->second = std::move(value);
      items_.splice(items_.begin(), items_, it->second);
      return;
    }
    items_.emplace_front(std::move(key), std::move(value));
    index_.emplace(KeyRef{&items_.front().first}, items_.begin());
    EvictDownToCapacity();
  }

  bool Erase(const K& key) {
    auto it = index_.find(KeyRef{&key});
    if (it == index_.end()) return false;
    auto item = it->second;
    index_.erase(it);
    items_.erase(item);
    return true;
  }

  void Clear() {
    index_.clear();
    items_.clear();
    evictions_ = 0;
  }

 private:
  using Items = std::list<std::pair<const K, V>>;

  // The index refers to the key stored in its list node, so every key is
  // held once (list nodes never move).
  struct KeyRef {
    const K* key;
  };
  struct KeyRefHash {
    size_t operator()(KeyRef ref) const { return Hash{}(*ref.key); }
  };
  struct KeyRefEq {
    bool operator()(KeyRef a, KeyRef b) const { return *a.key == *b.key; }
  };

  void EvictDownToCapacity() {
    while (items_.size() > capacity_) {
      index_.erase(KeyRef{&items_.back().first});
      items_.pop_back();
      ++evictions_;
    }
  }

  size_t capacity_;
  uint64_t evictions_ = 0;
  Items items_;  // front = most recently used
  std::unordered_map<KeyRef, typename Items::iterator, KeyRefHash, KeyRefEq>
      index_;
};

}  // namespace aimq

#endif  // AIMQ_UTIL_LRU_H_
