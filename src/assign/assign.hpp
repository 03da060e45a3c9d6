#pragma once
// P0 -- packing with *fixed* orientations.
//
// Once every antenna's orientation alpha_j is fixed, the remaining problem
// is a Multiple Knapsack with assignment restrictions (each customer is
// eligible only for the antennas whose oriented sector contains it; value ==
// weight == demand). Every higher-level solver (P1..P3) calls into this
// module, and it is also studied on its own in experiment T5.

#include <span>

#include "src/core/deadline.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/solution.hpp"

namespace sectorpack::assign {

// All solvers below honor opts.deadline: on expiry they stop at the next
// check point (customer block / antenna / node block), leave the remaining
// customers unserved, and return a feasible partial assignment with
// Solution::status == kBudgetExhausted.

/// Which customers each antenna can see under the given orientations.
struct Eligibility {
  /// per_antenna[j] = ascending customer indices inside antenna j's sector.
  std::vector<std::vector<std::size_t>> per_antenna;
};

/// Tests antenna j's oriented sector over its radial band
/// (Instance::band), or asks the polar grid when Instance::spatial_index
/// returns it; both give exactly the customers Sector::contains accepts.
[[nodiscard]] Eligibility compute_eligibility(const model::Instance& inst,
                                              std::span<const double> alphas);

/// The transpose of e.per_antenna over `num_customers` customers: entry i
/// lists, ascending, the antennas whose sector contains customer i.
[[nodiscard]] std::vector<std::vector<std::int32_t>> per_customer(
    const Eligibility& e, std::size_t num_customers);

/// Greedy demand-descending best-fit: customers in decreasing demand order,
/// each placed on the eligible antenna with the largest residual capacity
/// that still fits it. Fast baseline (O(n log n + n k)).
[[nodiscard]] model::Solution solve_greedy(
    const model::Instance& inst, std::span<const double> alphas,
    const core::SolveOptions& opts = {});

/// Successive knapsack: antennas in decreasing capacity order; each solves a
/// knapsack (via `oracle`) over its still-unserved eligible customers and
/// commits the result. With an exact oracle this is the classic 1/2
/// approximation for Multiple Knapsack; with a beta-oracle the factor is
/// beta / (1 + beta).
[[nodiscard]] model::Solution solve_successive(
    const model::Instance& inst, std::span<const double> alphas,
    const knapsack::Oracle& oracle = knapsack::Oracle::exact(),
    const core::SolveOptions& opts = {});

/// Exact branch & bound over (customer -> eligible antenna | unserved)
/// decisions with a fractional pruning bound. Exponential worst case;
/// intended for n <= ~30 reference solutions. Throws std::runtime_error if
/// `node_limit` is exhausted. A deadline, by contrast, degrades: the search
/// stops at the next node block and the incumbent is returned with status
/// kBudgetExhausted.
[[nodiscard]] model::Solution solve_exact(const model::Instance& inst,
                                          std::span<const double> alphas,
                                          std::uint64_t node_limit = 1u << 26,
                                          const core::SolveOptions& opts = {});

/// LP rounding: solve the fractional-assignment LP exactly (max flow),
/// keep every customer the LP routes integrally to one antenna, then
/// repair the fractional remainder by demand-descending best fit. Strong
/// in practice because the flow LP has few fractional customers on
/// demand-style instances. Unweighted instances only (value == demand);
/// on weighted instances this falls back to solve_successive, which
/// optimizes value directly.
[[nodiscard]] model::Solution solve_lp_rounding(
    const model::Instance& inst, std::span<const double> alphas,
    const core::SolveOptions& opts = {});

}  // namespace sectorpack::assign
