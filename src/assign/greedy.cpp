#include <algorithm>
#include <numeric>

#include "src/assign/assign.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::assign {

model::Solution solve_greedy(const model::Instance& inst,
                             std::span<const double> alphas,
                             const core::SolveOptions& opts) {
  const core::Deadline& deadline = opts.deadline;
  const std::vector<std::vector<std::int32_t>> eligible =
      per_customer(compute_eligibility(inst, alphas), inst.num_customers());

  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha.assign(alphas.begin(), alphas.end());
  for (double& a : sol.alpha) a = geom::normalize(a);

  std::vector<std::size_t> order(inst.num_customers());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (inst.demand(a) != inst.demand(b)) {
      return inst.demand(a) > inst.demand(b);
    }
    return a < b;
  });

  std::vector<double> residual(inst.num_antennas());
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    residual[j] = inst.antenna(j).capacity;
  }

  std::size_t placed = 0;
  for (std::size_t i : order) {
    // Deadline check per 1024 placements; customers not yet placed simply
    // stay unserved, which keeps the partial assignment feasible.
    if ((placed++ & 1023) == 0 && deadline.expired()) {
      sol.status = model::SolveStatus::kBudgetExhausted;
      core::note_expired("assign_greedy");
      verify::debug_postcondition(inst, sol, "assign.greedy");
      return sol;
    }
    const double d = inst.demand(i);
    std::int32_t best = model::kUnserved;
    double best_residual = -1.0;
    for (std::int32_t j : eligible[i]) {
      const auto ju = static_cast<std::size_t>(j);
      if (residual[ju] >= d && residual[ju] > best_residual) {
        best_residual = residual[ju];
        best = j;
      }
    }
    if (best != model::kUnserved) {
      sol.assign[i] = best;
      residual[static_cast<std::size_t>(best)] -= d;
    }
  }
  verify::debug_postcondition(inst, sol, "assign.greedy");
  return sol;
}

}  // namespace sectorpack::assign
