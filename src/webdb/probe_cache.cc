#include "webdb/probe_cache.h"

#include <algorithm>
#include <utility>

namespace aimq {

ProbeCache::Claim ProbeCache::Acquire(const ProbeKey& key, size_t rows,
                                      bool* hit) {
  Claim claim;
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.lookups;
  if (const Entry* cached = cache_.Get(key)) {
    ++stats_.hits;
    if (hit != nullptr) *hit = true;
    if (cached->covered == rows) {
      claim.served = cached->rows;  // a refcount bump; entries are immutable
      return claim;
    }
    claim.cached = cached->rows;
    claim.covered = cached->covered;
    if (cached->covered > rows) return claim;  // an older reader: trim
  }
  if (coalesce_) {
    FlightKey flight_key{key, rows};
    auto it = flights_.find(flight_key);
    if (it != flights_.end()) {
      // Park on the running probe: one source scan serves every waiter.
      // The follower was spared a source probe, so it reports as a hit.
      std::shared_ptr<Flight> flight = it->second;
      ++flight->waiters;
      if (claim.cached == nullptr) ++stats_.hits;
      ++stats_.coalesced;
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
    flights_.emplace(std::move(flight_key), claim.flight);
  }
  if (claim.cached != nullptr) {
    ++stats_.extended;
  } else {
    ++stats_.misses;
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
  std::lock_guard<std::mutex> lock(mu_);
  if (flight != nullptr) {
    flight->done = true;
    if (answer.ok()) {
      flight->rows = *answer;
    } else {
      flight->status = answer.status();  // errors are never cached
    }
    flights_.erase(FlightKey{key, rows});
    flight->cv.notify_all();
  }
  if (answer.ok()) {
    // Keep whichever answer covers more rows: a reader on an older
    // snapshot must not shrink an entry a newer reader already extended.
    const Entry* resident = cache_.Peek(key);
    if (resident == nullptr || resident->covered < rows) {
      const uint64_t before = cache_.evictions();
      cache_.Put(key, Entry{*answer, rows});
      stats_.evictions += cache_.evictions() - before;
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
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.Peek(key) != nullptr;
}

void ProbeCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
  stats_ = ProbeCacheStats{};
}

void ProbeCache::EnableCoalescing(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  coalesce_ = enabled;
}

bool ProbeCache::coalescing_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return coalesce_;
}

size_t ProbeCache::InFlightWaiters() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t waiters = 0;
  for (const auto& [key, flight] : flights_) waiters += flight->waiters;
  return waiters;
}

size_t ProbeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

ProbeCacheStats ProbeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace aimq
