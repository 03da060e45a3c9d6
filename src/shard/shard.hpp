#pragma once
// Wedge x annulus sharding: divide-and-conquer for giant instances.
//
// The instance is partitioned geometrically -- W uniform angular wedges
// times A annular bands (band edges at customer-radius quantiles) -- and
// the antennas are apportioned to shards proportionally to shard demand
// (largest-remainder, deterministic). Each shard is an independent
// sub-instance solved with the sectors greedy, concurrently through
// par::parallel_for, under a slice of the caller's deadline; the shard
// solutions compose into a feasible global solution because shards are
// customer- and antenna-disjoint.
//
// Sharding is lossy exactly at the seams: a sector chosen inside wedge w
// extends up to its width rho past the wedge's end, and customers there
// belong to the next shard which never saw that sector. The boundary-repair
// pass runs after the merge: every still-unserved customer within eps of an
// angular seam is re-tested against every antenna's *final* sector and
// assigned to the first (lowest-index) one with residual capacity. Repair
// only adds assignments, so it never degrades the merged solution;
// `shard.repair_moved` counts what it recovered, making the seam loss a
// measured quantity rather than an assumed-small one.
//
// Determinism: the partition depends only on the instance and config (never
// on thread count -- parallelism changes wall time, not output), sub-solves
// are deterministic, and the merge/repair walk ascending indices. Running
// with a deadline trades this for bounded latency, like every solver here.

#include <cstddef>

#include "src/core/deadline.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/instance.hpp"
#include "src/model/solution.hpp"

namespace sectorpack::shard {

struct ShardConfig {
  /// Angular wedges; 0 picks clamp(num_antennas, 1, 32) so every shard has
  /// roughly one antenna's worth of work and output stays machine-
  /// independent.
  std::size_t wedges = 0;
  /// Annular bands per wedge (radius-quantile edges). 1 = pure wedges.
  std::size_t annuli = 1;
  /// Angular half-width of the seam-repair zone, radians. Negative picks
  /// min(max antenna rho, wedge width): a sector cannot overhang its wedge
  /// by more than its own width, so a wider zone cannot recover more.
  double seam_eps = -1.0;
  /// Per-shard packing oracle. Greedy by default: sharding targets the
  /// n >= 1e6 regime where exact per-window packings are not affordable.
  knapsack::Oracle oracle = knapsack::Oracle::greedy();
  core::SolveOptions solve;
};

struct ShardStats {
  std::size_t shards = 0;        // shards solved (non-empty partitions)
  std::size_t repair_moved = 0;  // customers assigned by seam repair
};

/// Partition, solve, merge, repair. Returns a feasible solution for `inst`;
/// status is the worst across shard solves (sticky kBudgetExhausted).
[[nodiscard]] model::Solution solve(const model::Instance& inst,
                                    const ShardConfig& config = {},
                                    ShardStats* stats = nullptr);

}  // namespace sectorpack::shard
