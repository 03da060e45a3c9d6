#include <algorithm>
#include <stdexcept>

#include "src/assign/assign.hpp"
#include "src/geom/sweep.hpp"
#include "src/sectors/sectors.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::sectors {

namespace {

// Candidate leading-edge orientations for antenna j: the angles of the
// customers within its range (an antenna serving nothing may point
// anywhere; 0.0 represents that choice).
std::vector<double> candidates_for(const model::Instance& inst,
                                   std::size_t j) {
  const std::span<const std::size_t> in_band = inst.band(j);
  std::vector<double> thetas;
  thetas.reserve(in_band.size());
  for (std::size_t i : in_band) thetas.push_back(inst.theta(i));
  std::vector<double> cands = geom::candidate_orientations(
      thetas, inst.antenna(j).rho, geom::CandidateEdges::kLeading);
  if (cands.empty()) cands.push_back(0.0);
  return cands;
}

}  // namespace

model::Solution solve_exact(const model::Instance& inst,
                            std::uint64_t tuple_limit,
                            std::uint64_t node_limit,
                            const core::SolveOptions& opts) {
  const core::Deadline& deadline = opts.deadline;
  const std::size_t k = inst.num_antennas();
  model::Solution best = model::Solution::empty_for(inst);
  if (k == 0 || inst.num_customers() == 0) return best;

  std::vector<std::vector<double>> cands(k);
  std::uint64_t tuples = 1;
  for (std::size_t j = 0; j < k; ++j) {
    cands[j] = candidates_for(inst, j);
    if (tuples > tuple_limit / cands[j].size() + 1) {
      throw std::invalid_argument(
          "sectors::solve_exact: candidate tuple space too large");
    }
    tuples *= cands[j].size();
  }
  if (tuples > tuple_limit) {
    throw std::invalid_argument(
        "sectors::solve_exact: candidate tuple space too large");
  }

  // Identical antennas are interchangeable: restrict to non-decreasing
  // candidate index tuples to avoid re-solving permutations.
  const bool identical = inst.antennas_identical();

  double best_value = -1.0;
  bool exhausted = false;
  std::vector<std::size_t> pick(k, 0);
  std::vector<double> alphas(k, 0.0);
  for (;;) {
    // Deadline check per candidate tuple (each tuple is one exact
    // assignment solve). Expiry turns the enumeration into an anytime
    // search over the tuples examined so far.
    if (deadline.expired()) {
      exhausted = true;
      break;
    }
    bool skip = false;
    if (identical) {
      for (std::size_t j = 1; j < k; ++j) {
        if (pick[j] < pick[j - 1]) {
          skip = true;
          break;
        }
      }
    }
    if (!skip) {
      for (std::size_t j = 0; j < k; ++j) alphas[j] = cands[j][pick[j]];
      model::Solution sol = assign::solve_exact(inst, alphas, node_limit,
                                                opts);
      if (sol.status == model::SolveStatus::kBudgetExhausted) {
        exhausted = true;  // this tuple's value is a lower estimate
      }
      const double value = model::served_value(inst, sol);
      if (value > best_value) {
        best_value = value;
        best = std::move(sol);
      }
    }
    // Next tuple (odometer).
    std::size_t pos = k;
    bool done = true;
    while (pos > 0) {
      --pos;
      if (++pick[pos] < cands[pos].size()) {
        done = false;
        break;
      }
      pick[pos] = 0;
    }
    if (done) break;
  }
  best.status = exhausted ? model::SolveStatus::kBudgetExhausted
                          : model::SolveStatus::kComplete;
  if (exhausted) core::note_expired("sectors_exact");
  verify::debug_postcondition(inst, best, "sectors.exact");
  return best;
}

}  // namespace sectorpack::sectors
