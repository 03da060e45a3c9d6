#include "src/srv/cache.hpp"

namespace sectorpack::srv {

ResultCache::ResultCache(std::size_t max_entries)
    : max_entries_(max_entries),
      hit_counter_(obs::counter("srv.cache.hit")),
      miss_counter_(obs::counter("srv.cache.miss")),
      eviction_counter_(obs::counter("srv.cache.evicted")),
      entries_gauge_(obs::gauge("srv.cache.entries")) {
  entries_gauge_.set(0.0);
}

std::optional<model::Solution> ResultCache::lookup(const Fingerprint& fp) {
  const core::LockGuard lock(mu_);
  const auto it = map_.find(fp);
  if (it == map_.end()) {
    ++misses_;
    miss_counter_.inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
  ++hits_;
  hit_counter_.inc();
  return it->second->second;
}

void ResultCache::insert(const Fingerprint& fp, model::Solution sol) {
  if (max_entries_ == 0) return;
  const core::LockGuard lock(mu_);
  const auto it = map_.find(fp);
  if (it != map_.end()) {
    // Refresh: same fingerprint means the same input, so the payload is
    // the same solution; keep the newer one and bump recency.
    it->second->second = std::move(sol);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(fp, std::move(sol));
  map_.emplace(fp, lru_.begin());
  if (map_.size() > max_entries_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
    eviction_counter_.inc();
  }
  entries_gauge_.set(static_cast<double>(map_.size()));
}

std::size_t ResultCache::size() const {
  const core::LockGuard lock(mu_);
  return map_.size();
}

std::uint64_t ResultCache::hits() const {
  const core::LockGuard lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  const core::LockGuard lock(mu_);
  return misses_;
}

std::uint64_t ResultCache::evictions() const {
  const core::LockGuard lock(mu_);
  return evictions_;
}

}  // namespace sectorpack::srv
