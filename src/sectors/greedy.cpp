#include <algorithm>

#include "src/assign/assign.hpp"
#include "src/knapsack/incremental.hpp"
#include "src/sectors/sectors.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::sectors {

const single::WindowChoice& Verdicts::keep(std::size_t j,
                                           single::WindowChoice choice) {
  clean_[j] = choice.complete ? 1 : 0;
  verdict_[j] = std::move(choice);
  return verdict_[j];
}

void Verdicts::mark(const model::Instance& inst, std::size_t mover,
                    std::span<const std::size_t> moved) {
  for (std::size_t j = 0; j < clean_.size(); ++j) {
    if (j == mover || clean_[j] == 0) continue;
    for (const std::size_t i : moved) {
      if (inst.in_range(i, j)) {
        clean_[j] = 0;
        break;
      }
    }
  }
}

model::Solution greedy_rounds(const model::Instance& inst,
                              const core::Deadline& deadline,
                              const GreedyEval& evaluate,
                              const GreedyCommit& committed,
                              Verdicts* verdicts) {
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();

  model::Solution sol = model::Solution::empty_for(inst);
  std::vector<bool> served(n, false);
  std::vector<bool> used(k, false);
  Verdicts own;
  Verdicts& table = verdicts != nullptr ? *verdicts : own;
  table = Verdicts(k);

  // When all antennas are identical, every unused antenna sees the same
  // sweep each round; only the lowest-index one is evaluated.
  const bool identical = inst.antennas_identical();

  for (std::size_t round = 0; round < k; ++round) {
    // First antenna achieving the maximum: a later one replaces the
    // incumbent only on strictly greater value, and a verdict worth nothing
    // never commits.
    std::size_t best_j = k;
    double best_value = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (used[j]) continue;
      const single::WindowChoice& pick =
          table.clean(j) ? table.verdict(j)
                         : table.keep(j, evaluate(j, served));
      if (pick.value > best_value) {
        best_value = pick.value;
        best_j = j;
      }
      if (identical) break;
    }

    if (best_j < k) {
      const single::WindowChoice& best = table.verdict(best_j);
      used[best_j] = true;
      sol.alpha[best_j] = best.alpha;
      for (const std::size_t i : best.chosen) {
        served[i] = true;
        sol.assign[i] = static_cast<std::int32_t>(best_j);
      }
      // The committed customers leave every other antenna's free set, used
      // antennas included, so the table stays valid for local search.
      table.mark(inst, best_j, best.chosen);
      if (committed) committed(best_j, best);
    }
    // Deadline check per greedy round: the committed prefix of rounds is a
    // feasible solution in its own right, so it is the natural incumbent.
    // Expiry latches, so this also catches sweeps truncated mid-round: the
    // committed pick stays (it is feasible), later rounds are abandoned.
    if (deadline.expired()) {
      sol.status = model::SolveStatus::kBudgetExhausted;
      return sol;
    }
    if (best_j == k) break;  // no antenna can serve anything further
  }
  return sol;
}

single::WindowChoice sweep_unserved(const model::Instance& inst,
                                    std::size_t j,
                                    const std::vector<bool>& served,
                                    const GreedyConfig& config,
                                    knapsack::OracleCache* cache,
                                    std::span<const std::size_t> ids) {
  // Antenna j's unserved in-band customers, in ascending order.
  std::vector<double> thetas;
  std::vector<double> values;
  std::vector<double> demands;
  std::vector<std::size_t> index;
  std::vector<std::size_t> stable;
  for (const std::size_t i : inst.band(j)) {
    if (served[i]) continue;
    thetas.push_back(inst.theta(i));
    values.push_back(inst.value(i));
    demands.push_back(inst.demand(i));
    index.push_back(i);
    if (!ids.empty()) stable.push_back(ids[i]);
  }
  single::WindowChoice choice = single::best_window_weighted(
      thetas, values, demands, inst.antenna(j).rho, inst.antenna(j).capacity,
      config.oracle, cache, ids.empty() ? index : stable,
      config.solve.deadline);
  for (std::size_t& c : choice.chosen) c = index[c];
  return choice;
}

model::Solution solve_greedy(const model::Instance& inst,
                             const GreedyConfig& config, Verdicts* verdicts) {
  // Window memo, per antenna, surviving across rounds: away from the window
  // committed last round the unserved set -- and hence most windows' member
  // fingerprints -- is unchanged, so later rounds mostly replay cached
  // packings. Identical antennas share one cache (same capacity, same
  // windows).
  const bool identical = inst.antennas_identical();
  std::vector<knapsack::OracleCache> caches(identical ? 1
                                                      : inst.num_antennas());
  model::Solution sol = greedy_rounds(
      inst, config.solve.deadline,
      [&](std::size_t j, const std::vector<bool>& served) {
        return sweep_unserved(inst, j, served, config,
                              &caches[identical ? 0 : j]);
      },
      nullptr, verdicts);
  if (sol.status == model::SolveStatus::kBudgetExhausted) {
    core::note_expired("sectors_greedy");
  }
  verify::debug_postcondition(inst, sol, "sectors.greedy");
  return sol;
}

model::Solution solve_uniform_orientations(const model::Instance& inst,
                                           const knapsack::Oracle& oracle,
                                           const core::SolveOptions& opts) {
  const std::size_t k = inst.num_antennas();
  std::vector<double> alphas(k, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    alphas[j] = geom::kTwoPi * static_cast<double>(j) /
                static_cast<double>(std::max<std::size_t>(k, 1));
  }
  model::Solution sol = assign::solve_successive(inst, alphas, oracle, opts);
  verify::debug_postcondition(inst, sol, "sectors.uniform");
  return sol;
}

}  // namespace sectorpack::sectors
