#include <stdexcept>

#include "src/geom/sweep.hpp"
#include "src/single/single.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::single {

model::Solution solve(const model::Instance& inst, const Config& config) {
  if (config.antenna >= inst.num_antennas()) {
    throw std::invalid_argument("single::solve: antenna index out of range");
  }
  const std::size_t j = config.antenna;
  const model::AntennaSpec& ant = inst.antenna(j);

  // Restrict to in-range customers; the band maps back to instance
  // indices, and the gathers read the SoA arrays.
  const std::span<const std::size_t> index = inst.band(j);
  std::vector<double> thetas;
  std::vector<double> values;
  std::vector<double> demands;
  thetas.reserve(index.size());
  values.reserve(index.size());
  demands.reserve(index.size());
  for (std::size_t i : index) {
    thetas.push_back(inst.theta(i));
    values.push_back(inst.value(i));
    demands.push_back(inst.demand(i));
  }

  // Uniform-demand fast path: exact and O(n log n), valid whenever an
  // exact packing is requested and all demands (== values) coincide. It
  // always completes, so it never consults the deadline.
  const bool exact_requested = config.oracle.guarantee() >= 1.0;
  const WindowChoice choice =
      (exact_requested && !demands.empty() &&
       uniform_demands(values, demands))
          ? best_window_uniform(thetas, demands[0], ant.rho, ant.capacity)
          : best_window_weighted(thetas, values, demands, ant.rho,
                                 ant.capacity, config.oracle, nullptr, {},
                                 config.solve.deadline);

  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[j] = choice.alpha;
  for (std::size_t local : choice.chosen) {
    sol.assign[index[local]] = static_cast<std::int32_t>(j);
  }
  if (!choice.complete) {
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("single");
  }
  verify::debug_postcondition(inst, sol, "single.solve");
  return sol;
}

model::Solution solve_exact(const model::Instance& inst) {
  return solve(inst, Config{knapsack::Oracle::exact(), 0, {}});
}

model::Solution solve_greedy(const model::Instance& inst) {
  return solve(inst, Config{knapsack::Oracle::greedy(), 0, {}});
}

model::Solution solve_fptas(const model::Instance& inst, double eps) {
  return solve(inst, Config{knapsack::Oracle::fptas(eps), 0, {}});
}

model::Solution solve_reference(const model::Instance& inst,
                                std::size_t antenna) {
  if (antenna >= inst.num_antennas()) {
    throw std::invalid_argument(
        "single::solve_reference: antenna index out of range");
  }
  const std::size_t j = antenna;
  const model::AntennaSpec& ant = inst.antenna(j);

  const std::span<const std::size_t> index = inst.band(j);
  std::vector<double> thetas;
  std::vector<double> values;
  std::vector<double> demands;
  for (const std::size_t i : index) {
    thetas.push_back(inst.theta(i));
    values.push_back(inst.value(i));
    demands.push_back(inst.demand(i));
  }
  if (thetas.size() > 20) {
    throw std::invalid_argument("single::solve_reference: n > 20");
  }

  // Over-complete candidate set: both edges plus midpoints between
  // consecutive customer angles, so the reference cannot miss an optimum
  // even if the leading-edge lemma were wrong.
  std::vector<double> cands =
      geom::candidate_orientations(thetas, ant.rho, geom::CandidateEdges::kBoth);
  const std::size_t base = cands.size();
  for (std::size_t a = 0; a < base; ++a) {
    const double next = cands[(a + 1) % base];
    const double mid =
        cands[a] + 0.5 * geom::ccw_delta(cands[a], next);
    cands.push_back(geom::normalize(mid));
  }
  if (cands.empty()) cands.push_back(0.0);

  model::Solution best = model::Solution::empty_for(inst);
  double best_value = -1.0;
  std::vector<knapsack::Item> items;
  std::vector<std::size_t> members;
  for (double alpha : cands) {
    const geom::Arc window(alpha, ant.rho);
    items.clear();
    members.clear();
    for (std::size_t local = 0; local < thetas.size(); ++local) {
      if (window.contains(thetas[local])) {
        items.push_back({values[local], demands[local]});
        members.push_back(local);
      }
    }
    const knapsack::Result res =
        knapsack::solve_brute_force(items, ant.capacity);
    if (res.value > best_value) {
      best_value = res.value;
      best = model::Solution::empty_for(inst);
      best.alpha[j] = alpha;
      for (std::size_t pick : res.chosen) {
        best.assign[index[members[pick]]] = static_cast<std::int32_t>(j);
      }
    }
  }
  verify::debug_postcondition(inst, best, "single.reference");
  return best;
}

}  // namespace sectorpack::single
