#include <algorithm>
#include <iterator>

#include "src/assign/assign.hpp"
#include "src/core/contract.hpp"
#include "src/knapsack/incremental.hpp"
#include "src/model/validate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sectors/sectors.hpp"
#include "src/single/single.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::sectors {

model::Solution improve(const model::Instance& inst, model::Solution start,
                        const LocalSearchConfig& config, Verdicts* verdicts) {
  static const obs::Counter c_passes = obs::counter("local_search.passes");
  static const obs::Counter c_tried =
      obs::counter("local_search.moves_tried");
  static const obs::Counter c_improving =
      obs::counter("local_search.moves_improving");
  const obs::ScopedSpan span("sectors.local_search");

  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  model::Solution sol = std::move(start);
  Verdicts own(k);
  Verdicts& table = verdicts != nullptr ? *verdicts : own;
  SP_REQUIRE(table.size() == k);

  // Each antenna's customers, ascending, and who is served at all: a move
  // touches only the mover's list, and summing it in this order keeps
  // `current` what the scan over every customer summed.
  std::vector<std::vector<std::size_t>> members(k);
  std::vector<bool> served(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (sol.assign[i] == model::kUnserved) continue;
    served[i] = true;
    const auto a = static_cast<std::size_t>(sol.assign[i]);
    if (a < k) members[a].push_back(i);
  }
  std::vector<std::size_t> moved;

  // Window memo per antenna, surviving across passes: antenna j's candidate
  // pool (unserved plus its own customers) only changes when some antenna's
  // assignment changed nearby, so most windows replay from cache after the
  // first pass. Keyed by member fingerprints over instance indices.
  std::vector<knapsack::OracleCache> caches(k);
  const GreedyConfig sweep_config{config.oracle, config.solve};

  // Deadline check per antenna move (finer than per pass: one move is one
  // window sweep, the unit of work here). The solution between moves is
  // always feasible, so expiry just stops improving.
  const core::Deadline& deadline = config.solve.deadline;
  bool expired = false;

  bool improved_any = true;
  for (std::size_t pass = 0; pass < config.max_passes && improved_any;
       ++pass) {
    c_passes.inc();
    improved_any = false;
    for (std::size_t j = 0; j < k && !expired; ++j) {
      if (deadline.expired()) {
        expired = true;
        break;
      }
      c_tried.inc();
      // Objective value antenna j currently contributes.
      double current = 0.0;
      for (const std::size_t i : members[j]) current += inst.value(i);

      // Re-solve antenna j's window over unserved customers plus its own,
      // unless its verdict is still clean. sweep_unserved skips what
      // `served` marks, so j's own customers are unmarked for the sweep.
      if (!table.clean(j)) {
        for (const std::size_t i : members[j]) served[i] = false;
        table.keep(j, sweep_unserved(inst, j, served, sweep_config,
                                     &caches[j]));
        for (const std::size_t i : members[j]) served[i] = true;
      }
      const single::WindowChoice& choice = table.verdict(j);
      if (!choice.complete) expired = true;
      // A truncated sweep's incumbent is still a valid (possibly weaker)
      // re-orientation; applying it when improving keeps monotonicity.
      if (choice.value > current + 1e-12) {
        c_improving.inc();
        moved.clear();
        std::set_symmetric_difference(members[j].begin(), members[j].end(),
                                      choice.chosen.begin(),
                                      choice.chosen.end(),
                                      std::back_inserter(moved));
        for (const std::size_t i : members[j]) {
          sol.assign[i] = model::kUnserved;
          served[i] = false;
        }
        sol.alpha[j] = choice.alpha;
        for (const std::size_t i : choice.chosen) {
          sol.assign[i] = static_cast<std::int32_t>(j);
          served[i] = true;
        }
        members[j] = choice.chosen;
        // Antenna j's free set is unchanged, so its verdict stays clean.
        table.mark(inst, j, moved);
        improved_any = true;
      }
    }
    if (expired) break;
  }

  if (expired) {
    // Skip the global reassignment -- it is a full successive-knapsack pass
    // and the budget is gone. The current solution is the incumbent.
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("local_search");
    verify::debug_postcondition(inst, sol, "sectors.local_search");
    return sol;
  }

  // Global reassignment with the final orientations can consolidate
  // capacity across antennas; keep whichever is better.
  model::Solution reassigned =
      assign::solve_successive(inst, sol.alpha, config.oracle, config.solve);
  // Sticky status both ways: if either the start was truncated or the
  // reassignment ran out of budget, the overall result is best-effort.
  const model::SolveStatus status =
      model::worst_of(sol.status, reassigned.status);
  if (model::served_value(inst, reassigned) >
      model::served_value(inst, sol)) {
    reassigned.status = status;
    verify::debug_postcondition(inst, reassigned, "sectors.local_search");
    return reassigned;
  }
  sol.status = status;
  verify::debug_postcondition(inst, sol, "sectors.local_search");
  return sol;
}

model::Solution solve_local_search(const model::Instance& inst,
                                   const LocalSearchConfig& config) {
  GreedyConfig gc;
  gc.oracle = config.oracle;
  gc.solve = config.solve;
  Verdicts verdicts;
  model::Solution start = solve_greedy(inst, gc, &verdicts);
  return improve(inst, std::move(start), config, &verdicts);
}

}  // namespace sectorpack::sectors
