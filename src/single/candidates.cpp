#include <cmath>
#include <limits>
#include <utility>

#include "src/geom/sweep.hpp"
#include "src/knapsack/incremental.hpp"
#include "src/obs/metrics.hpp"
#include "src/single/single.hpp"

namespace sectorpack::single {

namespace {

// Per-scan tallies merged into the obs counters once per scan (not per
// window: the walk must stay branch-light when obs is off). `steps` counts
// the windows walked, each disposed of exactly once: skipped by sum or by
// bound, a cache hit, or a solve.
[[gnu::noinline]] void record_scan(std::uint64_t steps, std::uint64_t enters,
                                   std::uint64_t leaves,
                                   const knapsack::IncrementalStats& stats) {
  static const obs::Counter c_steps = obs::counter("sweep.delta.steps");
  static const obs::Counter c_enter = obs::counter("sweep.delta.enter");
  static const obs::Counter c_leave = obs::counter("sweep.delta.leave");
  static const obs::Counter c_sum = obs::counter("oracle.skip_sum");
  static const obs::Counter c_bound = obs::counter("oracle.skip_bound");
  static const obs::Counter c_hits = obs::counter("oracle.cache.hits");
  static const obs::Counter c_miss = obs::counter("oracle.cache.misses");
  static const obs::Counter c_collide =
      obs::counter("oracle.cache.collisions");
  static const obs::Counter c_solves = obs::counter("oracle.solves");
  c_steps.add(steps);
  c_enter.add(enters);
  c_leave.add(leaves);
  c_sum.add(stats.skipped_by_sum);
  c_bound.add(stats.skipped_by_bound);
  c_hits.add(stats.cache_hits);
  c_miss.add(stats.cache_misses);
  c_collide.add(stats.cache_collisions);
  c_solves.add(stats.solves);
}

}  // namespace

WindowChoice best_window_weighted(std::span<const double> thetas,
                                  std::span<const double> values,
                                  std::span<const double> demands, double rho,
                                  double capacity,
                                  const knapsack::Oracle& oracle,
                                  knapsack::OracleCache* cache,
                                  std::span<const std::size_t> ids,
                                  const core::Deadline& deadline) {
  const geom::WindowSweep sweep(thetas, rho);
  const std::size_t nw = sweep.num_windows();
  if (nw == 0) return {};

  // The value ceiling: when every value equals its demand and both are
  // nonnegative integers, every oracle's packing is an exact integer sum of
  // at most floor(capacity + kIntegralityTol) (the DP rounds the capacity
  // that way; the other oracles stay within the capacity itself), so once
  // the incumbent reaches it no later window can strictly beat it.
  bool integral = capacity < 0x1p53;
  std::vector<knapsack::Item> universe(thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    universe[i] = {values[i], demands[i]};
    integral = integral && values[i] == demands[i] && demands[i] >= 0.0 &&
               demands[i] == std::floor(demands[i]);
  }
  const double ceiling =
      integral ? std::floor(capacity + knapsack::kIntegralityTol)
               : std::numeric_limits<double>::infinity();
  knapsack::IncrementalOracle inc(universe, capacity, oracle, cache, ids);

  // Walk the windows with membership deltas, materializing only the first.
  // A window pays for a batch oracle solve only when (a) its running value
  // sum and (b) its O(log n) LP bound both still beat the incumbent --
  // neither skip can discard a window the non-incremental scan would have
  // used, because any oracle's value is bounded by both.
  WindowChoice best;
  knapsack::IncrementalStats stats;
  std::uint64_t enters = 0;
  std::uint64_t leaves = 0;
  std::size_t w = 0;
  for (; w < nw && best.value < ceiling; ++w) {
    // Deadline check per 64-window block; a truncated scan keeps its best
    // window so far and reports incompleteness through `complete`.
    if ((w & 63u) == 0 && deadline.expired()) {
      best.complete = false;
      break;
    }
    if (w == 0) {
      for (std::size_t m : sweep.members(0)) inc.add(m);
      enters += sweep.members(0).size();
    } else {
      const geom::WindowDelta d = sweep.delta(w);
      for (std::size_t m : d.leave) inc.remove(m);
      for (std::size_t m : d.enter) inc.add(m);
      leaves += d.leave.size();
      enters += d.enter.size();
    }
    if (inc.value_sum() <= best.value) {
      ++stats.skipped_by_sum;
      continue;
    }
    // At window 0 the incumbent is 0 and nothing has left, so only the
    // bound's sign matters, which the oracle tells without its trees.
    if (w == 0 ? !inc.bound_positive() : inc.upper_bound() <= best.value) {
      ++stats.skipped_by_bound;
      continue;
    }
    knapsack::Result res = inc.solve(sweep.members(w), &stats);
    if (res.value > best.value) {
      best.value = res.value;
      best.alpha = sweep.alpha(w);
      best.chosen = std::move(res.chosen);
    }
  }
  record_scan(w, enters, leaves, stats);
  return best;
}

WindowChoice best_window(std::span<const double> thetas,
                         std::span<const double> demands, double rho,
                         double capacity, const knapsack::Oracle& oracle,
                         knapsack::OracleCache* cache,
                         std::span<const std::size_t> ids,
                         const core::Deadline& deadline) {
  return best_window_weighted(thetas, demands, demands, rho, capacity, oracle,
                              cache, ids, deadline);
}

}  // namespace sectorpack::single
