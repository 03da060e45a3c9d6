#pragma once
// P1 -- packing to one sector.
//
// Fix one antenna (rho, R, c). By the candidate-orientation lemma it
// suffices to test the <= n orientations whose leading edge passes through a
// customer; for each window the served set is a 0/1 knapsack over the
// in-window, in-range customers. Composing the sweep with a knapsack oracle
// of guarantee beta yields a beta-approximation for P1 (the sweep itself is
// lossless), so:
//   exact oracle -> optimal, FPTAS(eps) oracle -> (1-eps)-approx,
//   greedy oracle -> 1/2-approx.

#include <span>

#include "src/core/deadline.hpp"
#include "src/knapsack/incremental.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/solution.hpp"

namespace sectorpack::single {

/// Outcome of scanning all windows of width rho over a customer list.
struct WindowChoice {
  double alpha = 0.0;  // best leading-edge orientation
  double value = 0.0;  // demand served by the best window's packing
  std::vector<std::size_t> chosen;  // indices into the provided lists
  /// False when a deadline expired mid-scan: the choice is the best among
  /// the windows examined, which may not be all of them.
  bool complete = true;
};

/// Scan every candidate window of width `rho` over customers given by
/// parallel arrays (thetas[i], demands[i]) and return the best packing into
/// `capacity` according to `oracle`. Ties broken toward the smallest alpha
/// so results are deterministic.
///
/// The scan walks consecutive windows with geom::WindowSweep::delta and a
/// knapsack::IncrementalOracle, so a window only pays for a full oracle
/// solve when its incrementally-maintained LP bound still beats the
/// incumbent. When every value equals its demand and both are nonnegative
/// integers, no packing exceeds floor(capacity + kIntegralityTol), so the
/// walk stops once the incumbent reaches that ceiling: no later window
/// could strictly beat it, and the result is the full walk's. See
/// docs/performance.md. `cache`, when given, memoizes solved
/// windows across calls (greedy rounds, local-search passes) -- `ids` must
/// then map each customer to a stable, strictly ascending id (e.g. its
/// instance index) so fingerprints agree across calls whose filtered
/// customer lists differ.
/// `deadline` is polled once per 64-window block; on expiry the scan stops
/// and returns its incumbent with WindowChoice::complete == false.
[[nodiscard]] WindowChoice best_window(std::span<const double> thetas,
                                       std::span<const double> demands,
                                       double rho, double capacity,
                                       const knapsack::Oracle& oracle,
                                       knapsack::OracleCache* cache = nullptr,
                                       std::span<const std::size_t> ids = {},
                                       const core::Deadline& deadline = {});

/// Value-weighted variant: customer i contributes values[i] to the
/// objective while consuming demands[i] of the capacity. The unweighted
/// overload above is equivalent to values == demands.
[[nodiscard]] WindowChoice best_window_weighted(
    std::span<const double> thetas, std::span<const double> values,
    std::span<const double> demands, double rho, double capacity,
    const knapsack::Oracle& oracle, knapsack::OracleCache* cache = nullptr,
    std::span<const std::size_t> ids = {},
    const core::Deadline& deadline = {});

/// Fast path for UNIFORM demands (every customer has demand d): the best
/// packing of a window is simply its min(|window|, floor(capacity/d))
/// cheapest... all-equal customers, so the knapsack disappears and the
/// whole sweep runs in O(n log n) instead of O(n^2) -- exact, not an
/// approximation. Serves the first fitting members in CCW order from the
/// leading edge (any subset of the right size is optimal).
[[nodiscard]] WindowChoice best_window_uniform(std::span<const double> thetas,
                                               double demand, double rho,
                                               double capacity);

/// True when the uniform fast path applies to these customers: all demands
/// equal (within 1e-12) and values equal demands.
[[nodiscard]] bool uniform_demands(std::span<const double> values,
                                   std::span<const double> demands);

struct Config {
  knapsack::Oracle oracle = knapsack::Oracle::exact();
  std::size_t antenna = 0;  // which antenna of the instance to orient
  core::SolveOptions solve;
};

/// Solve P1 for one antenna of `inst` (others stay at alpha=0, unused).
/// Guarantee: oracle.guarantee() * OPT for that antenna.
[[nodiscard]] model::Solution solve(const model::Instance& inst,
                                    const Config& config = {});

/// Convenience wrappers.
[[nodiscard]] model::Solution solve_exact(const model::Instance& inst);
[[nodiscard]] model::Solution solve_greedy(const model::Instance& inst);
[[nodiscard]] model::Solution solve_fptas(const model::Instance& inst,
                                          double eps);

/// Brute-force reference: additionally tries trailing-edge candidates and
/// midpoints, and uses exhaustive knapsack. For tests (n <= 20).
[[nodiscard]] model::Solution solve_reference(const model::Instance& inst,
                                              std::size_t antenna = 0);

}  // namespace sectorpack::single
