#include "src/sectors/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "src/assign/assign.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sectors/sectors.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::sectors {

model::Solution solve_annealing(const model::Instance& inst,
                                const AnnealConfig& config) {
  GreedyConfig start_config;
  start_config.solve = config.solve;
  return anneal(inst, solve_greedy(inst, start_config), config);
}

model::Solution anneal(const model::Instance& inst, model::Solution start,
                       const AnnealConfig& config) {
  static const obs::Counter c_epochs = obs::counter("anneal.epochs");
  static const obs::Counter c_accepted = obs::counter("anneal.accepted");
  static const obs::Counter c_rejected = obs::counter("anneal.rejected");
  static const obs::Counter c_improved = obs::counter("anneal.improved_best");
  static const obs::Gauge g_temperature =
      obs::gauge("anneal.final_temperature");
  const obs::ScopedSpan span("sectors.solve_annealing");

  const core::Deadline& deadline = config.solve.deadline;
  const std::size_t k = inst.num_antennas();
  model::Solution best = std::move(start);
  if (k == 0 || inst.num_customers() == 0) return best;

  sim::Rng rng(config.seed);

  // Candidate orientations per antenna: angles of in-range customers
  // (radial filter via the flat/indexed crossover helper; same angles in
  // the same ascending order either way).
  std::vector<std::vector<double>> cands(k);
  std::vector<std::size_t> in_band;
  for (std::size_t j = 0; j < k; ++j) {
    inst.in_range_customers(j, in_band);
    for (std::size_t i : in_band) cands[j].push_back(inst.theta(i));
    if (cands[j].empty()) cands[j].push_back(0.0);
  }

  double best_value = model::served_value(inst, best);
  std::vector<double> current = best.alpha;
  double current_value = best_value;

  // Start at 5% of total demand and cool geometrically per iteration.
  constexpr double kCooling = 0.995;
  double temperature = 0.05 * inst.total_demand();
  if (temperature <= 0.0) temperature = 1.0;

  std::size_t completed_iterations = 0;
  bool expired = best.status == model::SolveStatus::kBudgetExhausted;
  for (std::size_t it = 0; it < config.iterations; ++it) {
    // Deadline check per annealing iteration (each one re-assigns the whole
    // instance, so this is the natural batch). Best-so-far tracking means
    // the incumbent at expiry is feasible and never worse than the start.
    if (expired || deadline.expired()) {
      expired = true;
      break;
    }
    // Move: re-point one random antenna at a random candidate.
    const std::size_t j = rng.uniform_int(k);
    std::vector<double> proposal = current;
    proposal[j] = cands[j][rng.uniform_int(cands[j].size())];

    const model::Solution assigned =
        assign::solve_successive(inst, proposal, knapsack::Oracle::greedy(),
                                 config.solve);
    const double value = model::served_value(inst, assigned);

    const double delta = value - current_value;
    if (delta >= 0.0 ||
        rng.uniform01() < std::exp(delta / std::max(temperature, 1e-9))) {
      c_accepted.inc();
      current = std::move(proposal);
      current_value = value;
      if (value > best_value) {
        c_improved.inc();
        best_value = value;
        best = assigned;
      }
    } else {
      c_rejected.inc();
    }
    obs::trace_counter("anneal.temperature", temperature);
    obs::trace_counter("anneal.current_value", current_value);
    temperature *= kCooling;
    ++completed_iterations;
  }
  c_epochs.add(completed_iterations);
  g_temperature.set(temperature);

  if (expired || deadline.expired()) {
    // The final exact re-assign is a whole extra pass; with the budget gone
    // the best-so-far incumbent is the answer.
    best.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("annealing");
    verify::debug_postcondition(inst, best, "sectors.annealing");
    return best;
  }

  if (config.final_exact_assign) {
    model::Solution polished = assign::solve_successive(
        inst, best.alpha, knapsack::Oracle::exact(), config.solve);
    polished.status = model::worst_of(polished.status, best.status);
    if (model::served_value(inst, polished) > best_value) {
      best = std::move(polished);
    }
  }
  verify::debug_postcondition(inst, best, "sectors.annealing");
  return best;
}

}  // namespace sectorpack::sectors
