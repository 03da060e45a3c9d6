#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/assign/assign.hpp"
#include "src/bounds/dinic.hpp"
#include "src/bounds/upper.hpp"
#include "src/geom/sweep.hpp"
#include "src/knapsack/incremental.hpp"

namespace sectorpack::bounds {

namespace {

// W_j: the best fractional-knapsack value over antenna `ant`'s leading-edge
// windows among `band`, its in-range customers. One delta walk reads each
// window's Dantzig value off the oracle's Fenwick trees, O(m log m) for m
// customers in range; the oracle never solves, so it needs no cache.
double best_window_value(const model::Instance& inst,
                         const model::AntennaSpec& ant,
                         std::span<const std::size_t> band) {
  if (band.empty()) return 0.0;
  std::vector<double> thetas(band.size());
  std::vector<knapsack::Item> items(band.size());
  for (std::size_t m = 0; m < band.size(); ++m) {
    thetas[m] = inst.theta(band[m]);
    items[m] = {inst.value(band[m]), inst.demand(band[m])};
  }
  const geom::WindowSweep sweep(thetas, ant.rho);
  knapsack::IncrementalOracle window(items, ant.capacity,
                                     knapsack::Oracle::greedy());
  for (std::size_t m : sweep.members(0)) window.add(m);
  double best = window.upper_bound();
  for (std::size_t w = 1; w < sweep.num_windows(); ++w) {
    const geom::WindowDelta d = sweep.delta(w);
    for (std::size_t m : d.leave) window.remove(m);
    for (std::size_t m : d.enter) window.add(m);
    best = std::max(best, window.upper_bound());
  }
  return best;
}

}  // namespace

double fixed_orientation_fractional_bound(const model::Instance& inst,
                                          std::span<const double> alphas) {
  if (inst.is_value_weighted()) {
    throw std::invalid_argument(
        "fixed_orientation_fractional_bound: max-flow relaxation is only "
        "valid when value == demand for every customer");
  }
  const assign::Eligibility elig =
      assign::compute_eligibility(inst, alphas);

  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  // Nodes: 0 = source, 1..n = customers, n+1..n+k = antennas, n+k+1 = sink.
  Dinic flow(n + k + 2);
  const std::size_t source = 0;
  const std::size_t sink = n + k + 1;

  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(source, 1 + i, inst.demand(i));
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i : elig.per_antenna[j]) {
      flow.add_edge(1 + i, 1 + n + j, kInf);
    }
    flow.add_edge(1 + n + j, sink, inst.antenna(j).capacity);
  }
  return flow.max_flow(source, sink);
}

double orientation_free_bound(const model::Instance& inst) {
  // W_j already enforces the capacity, so it needs no clamp (for weighted
  // instances value and capacity are in different units anyway).
  double per_antenna_total = 0.0;
  std::vector<std::size_t> band;
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    inst.in_range_customers(j, band);
    per_antenna_total += best_window_value(inst, inst.antenna(j), band);
  }
  return std::min(inst.total_value(), per_antenna_total);
}

double flow_window_bound(const model::Instance& inst,
                         const core::SolveOptions& opts) {
  if (inst.is_value_weighted()) {
    throw std::invalid_argument(
        "flow_window_bound: max-flow relaxation is only valid when value == "
        "demand for every customer; use orientation_free_bound instead");
  }
  const core::Deadline& deadline = opts.deadline;
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();

  // Per-antenna ceiling min(capacity, W_j), over the in-range list that the
  // flow arcs below reuse.
  std::vector<std::vector<std::size_t>> bands(k);
  std::vector<double> ceiling(k, 0.0);
  std::vector<std::size_t> node(n, 0);  // flow node of customer i; 0: none
  for (std::size_t j = 0; j < k; ++j) {
    // Deadline check per antenna sweep. A truncated bound computation can
    // not certify anything, so degrade to the always-valid trivial bound
    // rather than return an under-estimate that is not an upper bound.
    if (deadline.expired()) {
      core::note_expired("flow_window_bound");
      return trivial_bound(inst);
    }
    const model::AntennaSpec& ant = inst.antenna(j);
    inst.in_range_customers(j, bands[j]);
    ceiling[j] = std::min(ant.capacity, best_window_value(inst, ant, bands[j]));
    for (std::size_t i : bands[j]) node[i] = 1;
  }

  // Flow: source -> customer (demand) -> in-range antenna -> sink (ceiling).
  // Customers no antenna reaches get no node: they carry no flow, and the
  // others keep their BFS levels and edge order, so Dinic augments along
  // the same paths in the same order and the value is bitwise unchanged.
  std::size_t reached = 0;
  for (std::size_t& v : node) {
    if (v != 0) v = ++reached;
  }
  Dinic flow(reached + k + 2);
  const std::size_t source = 0;
  const std::size_t sink = reached + k + 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (node[i] != 0) flow.add_edge(source, node[i], inst.demand(i));
  }
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t antenna = reached + 1 + j;
    for (std::size_t i : bands[j]) flow.add_edge(node[i], antenna, kInf);
    flow.add_edge(antenna, sink, ceiling[j]);
  }
  const double value = flow.max_flow(source, sink, deadline);
  if (flow.truncated()) {
    // Same reasoning: a partial max flow is a lower estimate of the LP
    // value, which is the wrong direction for an upper bound.
    core::note_expired("flow_window_bound");
    return trivial_bound(inst);
  }
  return value;
}

double trivial_bound(const model::Instance& inst) {
  return std::min(inst.total_demand(), inst.total_capacity());
}

}  // namespace sectorpack::bounds
