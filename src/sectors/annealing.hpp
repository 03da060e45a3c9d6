#pragma once
// Simulated-annealing metaheuristic for P3 orientations.
//
// The combinatorial core of the problem is the orientation vector; given
// orientations, assignment is handled well by successive knapsack. The
// annealer random-walks over candidate orientation vectors (leading edges
// at customer angles, so the walk stays on the lossless candidate grid),
// re-assigns after each move, and accepts by the Metropolis rule with a
// geometric cooling schedule. Purpose: an independent baseline against the
// constructive greedy/local-search pair in the experiment suite, and a
// polish pass for hard saturated instances.

#include "src/core/deadline.hpp"
#include "src/model/solution.hpp"
#include "src/sim/rng.hpp"

namespace sectorpack::sectors {

struct AnnealConfig {
  std::uint64_t seed = 1;
  std::size_t iterations = 2000;
  /// Re-assign with an exact oracle at the end (each move of the walk
  /// re-assigns with the greedy oracle).
  bool final_exact_assign = true;
  /// Deadline checked once per iteration; on expiry the walk stops, the
  /// final exact re-assign is skipped, and the best-so-far is returned with
  /// status kBudgetExhausted.
  core::SolveOptions solve;
};

/// Simulated annealing from the greedy solution. The returned solution is
/// feasible and never worse than the greedy start (best-so-far tracking).
[[nodiscard]] model::Solution solve_annealing(const model::Instance& inst,
                                              const AnnealConfig& config = {});

/// Simulated annealing from an explicit starting solution (warm start),
/// e.g. a portfolio race's shared incumbent. `start` must be feasible for
/// `inst`; the walk begins at its orientation vector and best-so-far
/// tracking guarantees the result is never worse. solve_annealing(inst, c)
/// is exactly anneal(inst, solve_greedy(inst, greedy-with-c.solve), c), so
/// warm-starting with that same greedy solution is byte-identical to the
/// cold path.
[[nodiscard]] model::Solution anneal(const model::Instance& inst,
                                     model::Solution start,
                                     const AnnealConfig& config = {});

}  // namespace sectorpack::sectors
