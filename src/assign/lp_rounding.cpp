#include <algorithm>
#include <limits>
#include <numeric>

#include "src/assign/assign.hpp"
#include "src/bounds/dinic.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::assign {

model::Solution solve_lp_rounding(const model::Instance& inst,
                                  std::span<const double> alphas,
                                  const core::SolveOptions& opts) {
  if (inst.is_value_weighted()) {
    // Max-flow maximizes routed demand, not value; successive knapsack is
    // the right tool there.
    return solve_successive(inst, alphas, knapsack::Oracle::exact(), opts);
  }
  static const obs::Counter c_calls = obs::counter("assign.lp.calls");
  static const obs::Counter c_integral = obs::counter("assign.lp.integral");
  static const obs::Counter c_repair =
      obs::counter("assign.lp.repair_iterations");
  static const obs::Counter c_repaired = obs::counter("assign.lp.repaired");
  const obs::ScopedSpan span("assign.lp_rounding");
  c_calls.inc();

  const Eligibility elig = compute_eligibility(inst, alphas);
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();

  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha.assign(alphas.begin(), alphas.end());
  for (double& a : sol.alpha) a = geom::normalize(a);
  if (n == 0 || k == 0) return sol;

  // Fractional LP via max flow; remember the customer->antenna edge ids.
  bounds::Dinic flow(n + k + 2);
  const std::size_t source = 0;
  const std::size_t sink = n + k + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(source, 1 + i, inst.demand(i));
  }
  // edge_of[i] maps to (antenna j, edge id) pairs.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> edge_of(n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i : elig.per_antenna[j]) {
      edge_of[i].emplace_back(j, flow.add_edge(1 + i, 1 + n + j, kInf));
    }
    flow.add_edge(1 + n + j, sink, inst.antenna(j).capacity);
  }
  // A truncated flow is still a feasible flow: phase 1 keeps whichever
  // customers it routed integrally and phase 2's O(n k) repair fills the
  // rest, so expiry degrades rounding quality, never feasibility.
  (void)flow.max_flow(source, sink, opts.deadline);
  if (flow.truncated()) {
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("assign_lp");
  }

  // Phase 1: keep integrally-routed customers.
  std::vector<double> residual(k);
  for (std::size_t j = 0; j < k; ++j) {
    residual[j] = inst.antenna(j).capacity;
  }
  std::vector<std::size_t> leftover;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = inst.demand(i);
    std::int32_t whole = model::kUnserved;
    for (const auto& [j, edge] : edge_of[i]) {
      if (flow.edge_flow(edge) >= d * (1.0 - 1e-9)) {
        whole = static_cast<std::int32_t>(j);
      }
    }
    if (whole != model::kUnserved) {
      c_integral.inc();
      sol.assign[i] = whole;
      residual[static_cast<std::size_t>(whole)] -= d;
    } else {
      leftover.push_back(i);  // fractional in the LP, or untouched by it
    }
  }

  // Phase 2: repair -- place every remaining customer by demand-descending
  // best fit into the remaining capacity (not just the LP-fractional ones:
  // capacity the LP left idle is still capacity).
  const std::vector<std::vector<std::int32_t>> eligible =
      per_customer(elig, n);
  std::sort(leftover.begin(), leftover.end(),
            [&](std::size_t a, std::size_t b) {
              if (inst.demand(a) != inst.demand(b)) {
                return inst.demand(a) > inst.demand(b);
              }
              return a < b;
            });
  for (std::size_t i : leftover) {
    c_repair.inc();
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
      c_repaired.inc();
      sol.assign[i] = best;
      residual[static_cast<std::size_t>(best)] -= d;
    }
  }
  verify::debug_postcondition(inst, sol, "assign.lp_rounding");
  return sol;
}

}  // namespace sectorpack::assign
