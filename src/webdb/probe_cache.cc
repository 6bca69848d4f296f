#include "webdb/probe_cache.h"

#include <algorithm>
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
    stripes_[i].cache.set_capacity(capacity / n + (i < capacity % n ? 1 : 0));
  }
}

ProbeCache::Claim ProbeCache::Acquire(const ProbeKey& key, size_t rows,
                                      bool* hit) {
  Claim claim;
  Stripe& stripe = stripes_[StripeIndex(key)];
  std::unique_lock<std::mutex> lock(stripe.mu);
  ++stripe.stats.lookups;
  if (const Entry* cached = stripe.cache.Get(key)) {
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
    const Entry* resident = stripe.cache.Peek(key);
    if (resident == nullptr || resident->covered < rows) {
      const uint64_t before = stripe.cache.evictions();
      stripe.cache.Put(key, Entry{*answer, rows});
      stripe.stats.evictions += stripe.cache.evictions() - before;
    }
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
  return stripe.cache.Peek(key) != nullptr;
}

void ProbeCache::Clear() {
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.cache.Clear();
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
    size += stripe.cache.size();
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
