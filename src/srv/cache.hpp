#pragma once
// Thread-safe LRU cache of solve results, keyed by instance fingerprint
// (src/srv/fingerprint.hpp).
//
// Policy decisions, in one place:
//  * Only *complete* solutions are cached. A budget-exhausted incumbent is
//    an artifact of one request's deadline; serving it to a later request
//    with a larger (or no) budget would silently degrade that request.
//  * Entries store the solution exactly as solved, in the index space of
//    the instance it was solved for; the fingerprint covers the entities
//    in file order, so a hit is served unchanged. The engine verifies
//    every hit (verify::verify_solution) against the requesting instance,
//    so a fingerprint collision can never smuggle an infeasible
//    assignment into a response.
//  * Hits, misses, and evictions feed the obs counters srv.cache.hit /
//    srv.cache.miss / srv.cache.evicted, and srv.cache.entries gauges the
//    current size, so `--stats json` exposes cache effectiveness.

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/core/sync.hpp"
#include "src/model/solution.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/fingerprint.hpp"

namespace sectorpack::srv {

class ResultCache {
 public:
  /// Capacity in entries. 0 disables the cache: every lookup is a miss and
  /// nothing is stored (the counters still tick, so a disabled cache is
  /// visible in the stats instead of looking like a 0% hit rate bug).
  explicit ResultCache(std::size_t max_entries);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up a solution; bumps the entry to most-recently-used and the
  /// hit/miss counters either way.
  [[nodiscard]] std::optional<model::Solution> lookup(const Fingerprint& fp);

  /// Insert (or refresh) an entry, evicting the least-recently-used entry
  /// when full.
  void insert(const Fingerprint& fp, model::Solution sol);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

  /// Lifetime tallies, mirrored in the obs counters (kept locally too so
  /// the batch summary does not depend on obs being enabled).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  using LruList = std::list<std::pair<Fingerprint, model::Solution>>;

  mutable core::Mutex mu_;
  LruList lru_ SP_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<Fingerprint, LruList::iterator, FingerprintHasher> map_
      SP_GUARDED_BY(mu_);
  const std::size_t max_entries_;
  std::uint64_t hits_ SP_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ SP_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ SP_GUARDED_BY(mu_) = 0;
  obs::Counter hit_counter_;
  obs::Counter miss_counter_;
  obs::Counter eviction_counter_;
  obs::Gauge entries_gauge_;
};

}  // namespace sectorpack::srv
