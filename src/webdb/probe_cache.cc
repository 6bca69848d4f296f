#include "webdb/probe_cache.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

namespace aimq {

size_t ProbeCache::StripeCount(size_t capacity) {
  size_t stripes = 1;
  while (stripes < kMaxStripes &&
         capacity / (2 * stripes) >= kMinStripeEntries) {
    stripes *= 2;
  }
  return stripes;
}

ProbeCache::ProbeCache(size_t capacity)
    : capacity_(capacity), stripes_(StripeCount(capacity)) {
  // Split evenly; the first `capacity % stripes` stripes take one more.
  const size_t n = stripes_.size();
  for (size_t i = 0; i < n; ++i) {
    stripes_[i].table.set_capacity(capacity / n + (i < capacity % n ? 1 : 0));
  }
}

bool ProbeCache::Node::Matches(const ProbeKey& key) const {
  return hash == key.hash() && num_words == key.size() &&
         std::memcmp(words(), key.data(), num_words * sizeof(uint64_t)) == 0;
}

ProbeCache::Node* ProbeCache::Table::Peek(const ProbeKey& key) const {
  if (buckets_.empty()) return nullptr;
  Node* node = buckets_[key.hash() & (buckets_.size() - 1)];
  while (node != nullptr && !node->Matches(key)) node = node->chain;
  return node;
}

ProbeCache::Node* ProbeCache::Table::Get(const ProbeKey& key) {
  Node* node = Peek(key);
  if (node != nullptr && node != newest_) {
    Unlink(node);
    PushNewest(node);
  }
  return node;
}

uint64_t ProbeCache::Table::Store(const ProbeKey& key, const SharedRows& rows,
                                  size_t covered) {
  if (capacity_ == 0) return 0;
  if (Node* resident = Peek(key)) {
    if (resident->covered >= covered) return 0;
    resident->rows = rows;
    resident->covered = static_cast<uint32_t>(covered);
    Unlink(resident);
    PushNewest(resident);
    return 0;
  }
  // The key's words follow the node; sizeof(Node) is a multiple of their
  // alignment.
  static_assert(sizeof(Node) % alignof(uint64_t) == 0);
  void* memory = ::operator new(sizeof(Node) + key.size() * sizeof(uint64_t));
  Node* node = new (memory) Node();
  node->hash = key.hash();
  node->rows = rows;
  node->covered = static_cast<uint32_t>(covered);
  node->num_words = static_cast<uint32_t>(key.size());
  std::memcpy(reinterpret_cast<uint64_t*>(node + 1), key.data(),
              key.size() * sizeof(uint64_t));
  if (size_ >= buckets_.size()) Grow();
  Node*& head = buckets_[node->hash & (buckets_.size() - 1)];
  node->chain = head;
  head = node;
  PushNewest(node);
  ++size_;
  uint64_t evicted = 0;
  while (size_ > capacity_) {
    EvictOldest();
    ++evicted;
  }
  return evicted;
}

void ProbeCache::Table::Clear() {
  for (Node* node = newest_; node != nullptr;) {
    Node* older = node->older;
    node->~Node();
    ::operator delete(node);
    node = older;
  }
  newest_ = oldest_ = nullptr;
  size_ = 0;
  buckets_.clear();
  buckets_.shrink_to_fit();
}

void ProbeCache::Table::Unlink(Node* node) {
  (node->newer != nullptr ? node->newer->older : newest_) = node->older;
  (node->older != nullptr ? node->older->newer : oldest_) = node->newer;
  node->newer = node->older = nullptr;
}

void ProbeCache::Table::PushNewest(Node* node) {
  node->older = newest_;
  node->newer = nullptr;
  (newest_ != nullptr ? newest_->newer : oldest_) = node;
  newest_ = node;
}

void ProbeCache::Table::EvictOldest() {
  Node* node = oldest_;
  Unlink(node);
  Node** link = &buckets_[node->hash & (buckets_.size() - 1)];
  while (*link != node) link = &(*link)->chain;
  *link = node->chain;
  --size_;
  node->~Node();
  ::operator delete(node);
}

void ProbeCache::Table::Grow() {
  std::vector<Node*> grown(buckets_.empty() ? 8 : buckets_.size() * 2,
                           nullptr);
  for (Node* node = newest_; node != nullptr; node = node->older) {
    Node*& head = grown[node->hash & (grown.size() - 1)];
    node->chain = head;
    head = node;
  }
  buckets_.swap(grown);
}

ProbeCache::Claim ProbeCache::Acquire(const ProbeKey& key, size_t rows,
                                      bool* hit) {
  Claim claim;
  Stripe& stripe = stripes_[StripeIndex(key)];
  std::unique_lock<std::mutex> lock(stripe.mu);
  ++stripe.stats.lookups;
  if (const Node* cached = stripe.table.Get(key)) {
    ++stripe.stats.hits;
    if (hit != nullptr) *hit = true;
    if (cached->covered == rows) {
      claim.served = cached->rows;  // a refcount bump; entries are immutable
      return claim;
    }
    claim.cached = cached->rows;
    claim.covered = cached->covered;
    if (cached->covered > rows) return claim;  // an older reader: trim
  }
  if (coalesce_.load()) {
    FlightKey flight_key{key, rows};
    auto it = stripe.flights.find(flight_key);
    if (it != stripe.flights.end()) {
      // Park on the running probe: one source scan serves every waiter.
      // The follower was spared a source probe, so it reports as a hit.
      std::shared_ptr<Flight> flight = it->second;
      ++flight->waiters;
      if (claim.cached == nullptr) ++stripe.stats.hits;
      ++stripe.stats.coalesced;
      if (hit != nullptr) *hit = true;
      flight->cv.wait(lock, [&flight] { return flight->done; });
      --flight->waiters;
      if (flight->status.ok()) {
        claim.served = flight->rows;
      } else {
        claim.served = flight->status;
      }
      return claim;
    }
    claim.flight = std::make_shared<Flight>();
    stripe.flights.emplace(std::move(flight_key), claim.flight);
  }
  if (claim.cached != nullptr) {
    ++stripe.stats.extended;
  } else {
    ++stripe.stats.misses;
  }
  return claim;
}

Result<SharedRows> ProbeCache::AppendRows(const SharedRows& cached,
                                          Result<std::vector<uint32_t>> delta) {
  if (!delta.ok()) return delta.status();
  if (delta->empty()) return cached;
  auto rows = std::make_shared<std::vector<uint32_t>>();
  rows->reserve(cached->size() + delta->size());
  rows->insert(rows->end(), cached->begin(), cached->end());
  rows->insert(rows->end(), delta->begin(), delta->end());
  return SharedRows(std::move(rows));
}

SharedRows ProbeCache::RowsBelow(const SharedRows& cached, size_t rows) {
  const auto end = std::lower_bound(cached->begin(), cached->end(), rows);
  if (end == cached->end()) return cached;
  return std::make_shared<const std::vector<uint32_t>>(cached->begin(), end);
}

Result<SharedRows> ProbeCache::Fill(const ProbeKey& key, size_t rows,
                                    const std::shared_ptr<Flight>& flight,
                                    Result<SharedRows> answer) {
  Stripe& stripe = stripes_[StripeIndex(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  if (flight != nullptr) {
    flight->done = true;
    if (answer.ok()) {
      flight->rows = *answer;
    } else {
      flight->status = answer.status();  // errors are never cached
    }
    stripe.flights.erase(FlightKey{key, rows});
    flight->cv.notify_all();
  }
  if (answer.ok()) {
    // Keep whichever answer covers more rows: a reader on an older
    // snapshot must not shrink an entry a newer reader already extended.
    stripe.stats.evictions += stripe.table.Store(key, *answer, rows);
  }
  return answer;
}

Result<std::vector<Tuple>> ProbeCache::Execute(const WebDatabase& db,
                                               const SelectionQuery& query,
                                               bool* hit) {
  AIMQ_ASSIGN_OR_RETURN(SharedRows rows, ExecuteRows(db, query, hit));
  return db.Materialize(*rows);
}

bool ProbeCache::Contains(const WebDatabase& db,
                          const SelectionQuery& query) const {
  const ProbeKey key = ProbeKey::ForQuery(*db.columnar(), query);
  const Stripe& stripe = stripes_[StripeIndex(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.table.Peek(key) != nullptr;
}

void ProbeCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.table.Clear();
    stripe.stats = ProbeCacheStats{};
  }
}

void ProbeCache::EnableCoalescing(bool enabled) {
  coalesce_.store(enabled);
}

bool ProbeCache::coalescing_enabled() const {
  return coalesce_.load();
}

size_t ProbeCache::InFlightWaiters() const {
  size_t waiters = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [key, flight] : stripe.flights) waiters += flight->waiters;
  }
  return waiters;
}

size_t ProbeCache::size() const {
  size_t size = 0;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    size += stripe.table.size();
  }
  return size;
}

ProbeCacheStats ProbeCache::stats() const {
  ProbeCacheStats total;
  for (const Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    total.lookups += stripe.stats.lookups;
    total.hits += stripe.stats.hits;
    total.misses += stripe.stats.misses;
    total.evictions += stripe.stats.evictions;
    total.coalesced += stripe.stats.coalesced;
    total.extended += stripe.stats.extended;
  }
  return total;
}

}  // namespace aimq
