#pragma once
// Incremental window evaluation for the angular-sweep solvers.
//
// The sweep solvers (single::best_window*, the sector greedy/local-search
// rounds) evaluate a knapsack over every candidate window of a rotating
// arc. Adjacent windows differ by O(1) customers (geom::WindowSweep::delta),
// so re-solving each window from scratch wastes almost all of its work.
// IncrementalOracle maintains, under add/remove membership updates:
//
//   * O(1)      value/weight sums of the current members,
//   * O(log n)  the fractional (LP) upper bound on the best packing, via
//               Fenwick trees indexed by global density rank (the
//               "value-indexed monotone structure": prefix weight is
//               monotone in density rank, so the Dantzig prefix is found by
//               binary descent instead of a sort per window),
//   * O(1)      an order-independent 64-bit fingerprint of the member set
//               (sum of mixed per-item ids, exact under add/remove).
//
// The density order and the trees cost O(n log n) to build, and a scan
// whose first window already packs the whole capacity never needs them.
// So they are built at the first bound query that needs them, by replaying
// the adds and removes made until then in their original order: every
// bound is bitwise what trees kept from construction would give. Whether
// the bound is positive -- the only question against a zero incumbent --
// is answered without the trees while nothing has been removed.
//
// Exact packings still go through the configured Oracle as a batch re-solve
// -- DP/branch-and-bound/FPTAS results depend on item order, and presenting
// the materialized window keeps outputs bit-identical to the non-
// incremental path -- but the caller only pays for it when the LP bound
// says the window can still beat the incumbent (the "re-solve budget":
// sum-skip, then bound-skip, then memo lookup, then solve). OracleCache
// memoizes solved windows by fingerprint so identical windows recur for
// free across greedy rounds and local-search passes.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/knapsack/knapsack.hpp"

namespace sectorpack::knapsack {

/// Mixes a stable id into a 64-bit fingerprint contribution (splitmix64
/// finalizer). Member-set fingerprints are wrapping sums of these, so they
/// are order-independent and exactly reversible under remove().
[[nodiscard]] std::uint64_t fingerprint_mix(std::uint64_t id) noexcept;

/// Memo of solved windows, keyed by member-set fingerprint. Not
/// synchronized: each solve owns its caches and a serve session stays on
/// the serve thread, so no cache is shared across threads.
/// Entries store chosen items as the caller's *stable ids*, so hits are
/// valid across calls whose local item numbering differs (e.g. successive
/// greedy rounds filtering the unserved set). A hit returns exactly what
/// re-solving would: the underlying oracle is deterministic on a fixed
/// member set, and window member order (CCW from the leading edge) is a
/// function of the member set alone. Insertion stops at a size cap rather
/// than evicting; hit/miss totals feed the `oracle.cache.*` counters.
class OracleCache {
 public:
  struct Entry {
    double value = 0.0;
    double weight = 0.0;
    std::vector<std::size_t> chosen_ids;  // ascending stable ids
  };

  /// Copies the entry for `key` into `*out` if present.
  [[nodiscard]] bool lookup(std::uint64_t key, Entry* out) const;
  void store(std::uint64_t key, Entry entry);

  [[nodiscard]] std::size_t size() const;

  static constexpr std::size_t kMaxEntries = std::size_t{1} << 20;

 private:
  std::unordered_map<std::uint64_t, Entry> map_;
};

/// Per-scan tallies of how windows were disposed of; merged into the obs
/// counters in one shot (per scan, not per window) by the caller.
struct IncrementalStats {
  std::uint64_t skipped_by_sum = 0;    // value_sum() <= incumbent
  std::uint64_t skipped_by_bound = 0;  // upper_bound() <= incumbent
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;      // collisions included
  std::uint64_t cache_collisions = 0;  // key found, entry failed the check
  std::uint64_t solves = 0;  // batch oracle.solve() calls (== cache_misses
                             // when a cache is attached)
};

/// Membership-incremental evaluation of one (capacity, oracle) pair over a
/// fixed universe of items with weights >= 0. The first bound query sorts
/// the universe once by the greedy density order.
class IncrementalOracle {
 public:
  /// `ids`, when non-empty, gives a strictly ascending stable id per
  /// universe item (instance customer index); empty means ids are the
  /// universe indices themselves. Spans must outlive the oracle.
  IncrementalOracle(std::span<const Item> universe, double capacity,
                    const Oracle& oracle, OracleCache* cache = nullptr,
                    std::span<const std::size_t> ids = {});

  /// Add/remove universe item `i` to/from the current member set. Adding a
  /// present item or removing an absent one is undefined (asserted).
  void add(std::size_t i);
  void remove(std::size_t i);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Sum of member values -- an upper bound on any packing. O(1).
  [[nodiscard]] double value_sum() const noexcept { return vsum_; }
  [[nodiscard]] double weight_sum() const noexcept { return wsum_; }

  /// Fractional (Dantzig) upper bound on the best packing of the current
  /// members into the capacity: greedy density prefix plus one fractional
  /// item, computed by Fenwick descent in O(log n). Always >= the value any
  /// Oracle kind can return for this member set. The first call with
  /// members and a positive capacity builds the trees (O(n log n), may
  /// throw std::bad_alloc); the value does not depend on when that happens.
  [[nodiscard]] double upper_bound();

  /// upper_bound() > 0. While no member has been removed it is decided
  /// without building the trees: the descent has then seen adds only, so
  /// the bound is positive iff the capacity is and the densest positive
  /// member either fits whole or keeps a positive fractional share
  /// value * (capacity / weight). When all positive members agree on that
  /// test the densest one does too; only when they disagree do the trees
  /// settle it.
  [[nodiscard]] bool bound_positive();

  /// Order-independent fingerprint of the current member set.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  /// Batch-solve the current member set, presented in `members` order
  /// (must list exactly the current members; the caller walks windows so it
  /// owns the canonical CCW order). Returns chosen as universe indices,
  /// ascending. Consults/feeds the cache when one is attached; a cached
  /// entry is used only if every id it picked is a current member, and is
  /// otherwise counted as a collision and solved like a miss.
  [[nodiscard]] Result solve(std::span<const std::size_t> members,
                             IncrementalStats* stats);

 private:
  void fenwick_update(std::size_t slot, double dw, double dv, std::int64_t dc);
  /// Sorts the universe by density, sizes the trees and replays pending_.
  void build_trees();
  /// Maps a cached entry's stable ids into `*out` as universe indices.
  /// False when some id is not in this universe or not a current member:
  /// the 64-bit key collided with another member set's. Weights are fixed
  /// while a cache lives, so a packing of current members still fits.
  [[nodiscard]] bool replay(const OracleCache::Entry& entry,
                            Result* out) const;

  std::span<const Item> universe_;
  std::span<const std::size_t> ids_;
  double capacity_;
  Oracle oracle_;
  OracleCache* cache_;

  std::vector<std::uint64_t> id_mix_;    // universe idx -> fingerprint term

  // Built by the first bound query that needs them (empty until then).
  std::vector<std::uint32_t> slot_of_;   // universe idx -> density rank
  std::vector<std::uint32_t> item_at_;   // density rank -> universe idx
  // Fenwick trees over density ranks (1-indexed), members only; items with
  // value <= 0 never enter (they cannot raise the LP bound).
  std::vector<double> fen_w_;
  std::vector<double> fen_v_;
  std::vector<std::int64_t> fen_c_;
  std::size_t top_bit_ = 0;
  bool built_ = false;

  // Tree updates made before the build, in order: each add or remove of an
  // item with value > 0. build_trees() replays them.
  struct Update {
    std::uint32_t item;
    bool add;
  };
  std::vector<Update> pending_;
  bool pending_remove_ = false;  // some pending update is a remove

  std::vector<std::uint8_t> member_;
  std::size_t count_ = 0;
  std::size_t positive_count_ = 0;  // members with value > 0 (in the trees)
  double vsum_ = 0.0;
  double wsum_ = 0.0;
  std::uint64_t fp_ = 0;

  std::vector<Item> scratch_items_;
};

}  // namespace sectorpack::knapsack
