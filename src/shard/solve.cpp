#include "src/shard/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/geom/angle.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/par/parallel_for.hpp"
#include "src/sectors/sectors.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::shard {

namespace {

// Geometric partition plus the antenna apportionment. Shard id layout is
// wedge-major: shard s = wedge * bands + band.
struct Partition {
  std::size_t wedges = 1;
  std::size_t bands = 1;
  std::vector<double> band_edges;  // bands+1 radius edges, last = +inf
  std::vector<std::vector<std::size_t>> customers;  // per shard, ascending
  std::vector<std::vector<std::size_t>> antennas;   // per shard, ascending
};

Partition make_partition(const model::Instance& inst,
                         const ShardConfig& config) {
  Partition part;
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  part.wedges = config.wedges > 0
                    ? config.wedges
                    : std::clamp<std::size_t>(k, 1, 32);
  part.bands = std::clamp<std::size_t>(config.annuli, 1, 8);

  // Radial band edges at radius quantiles, like the polar grid's rings:
  // equal customer counts per band whatever the radial distribution.
  part.band_edges.push_back(0.0);
  if (part.bands > 1) {
    std::vector<double> sorted;
    sorted.reserve(n);
    for (double r : inst.radii()) {
      if (std::isfinite(r) && r >= 0.0) sorted.push_back(r);
    }
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t b = 1; b < part.bands && !sorted.empty(); ++b) {
      const double e = sorted[(b * sorted.size()) / part.bands];
      if (e > part.band_edges.back()) part.band_edges.push_back(e);
    }
  }
  part.band_edges.push_back(std::numeric_limits<double>::infinity());
  part.bands = part.band_edges.size() - 1;

  const std::size_t shards = part.wedges * part.bands;
  part.customers.resize(shards);
  part.antennas.resize(shards);

  const double wedge_scale =
      static_cast<double>(part.wedges) / geom::kTwoPi;
  std::vector<double> demand(shards, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t w =
        static_cast<std::size_t>(inst.theta(i) * wedge_scale);
    if (w >= part.wedges) w = part.wedges - 1;
    const double r = inst.radius(i);
    std::size_t b = 0;
    while (b + 1 < part.bands && !(r < part.band_edges[b + 1])) ++b;
    const std::size_t s = w * part.bands + b;
    part.customers[s].push_back(i);
    demand[s] += inst.demand(i);
  }

  // Apportion the k antennas to shards proportionally to shard demand
  // (largest remainder, ties to the lower shard id). Only shards with a
  // fractional remainder can receive a leftover seat, so zero-demand
  // shards never get an antenna. Antennas are dealt contiguously in
  // ascending index; heterogeneous fleets are matched by count, not
  // capability -- the repair pass and the measured quality metrics are
  // where any mismatch shows up.
  double total = 0.0;
  for (double d : demand) total += d;
  std::vector<std::size_t> quota(shards, 0);
  if (total > 0.0 && k > 0) {
    std::vector<std::pair<double, std::size_t>> rem;  // (-remainder, shard)
    std::size_t assigned = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const double share =
          static_cast<double>(k) * (demand[s] / total);
      quota[s] = static_cast<std::size_t>(share);
      assigned += quota[s];
      rem.emplace_back(-(share - std::floor(share)), s);
    }
    std::sort(rem.begin(), rem.end());
    for (std::size_t t = 0; t < rem.size() && assigned < k; ++t) {
      if (-rem[t].first > 0.0) {
        ++quota[rem[t].second];
        ++assigned;
      }
    }
    // Guard against floating-point shortfall in the remainders: any seats
    // still unassigned go to the highest-demand shards, ascending id ties.
    while (assigned < k) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < shards; ++s) {
        if (demand[s] > demand[best]) best = s;
      }
      ++quota[best];
      ++assigned;
    }
  }
  std::size_t next = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t q = 0; q < quota[s]; ++q) {
      part.antennas[s].push_back(next++);
    }
  }
  return part;
}

}  // namespace

model::Solution solve(const model::Instance& inst, const ShardConfig& config,
                      ShardStats* stats) {
  static const obs::Counter c_shards = obs::counter("shard.count");
  static const obs::Counter c_repair = obs::counter("shard.repair_moved");
  const obs::ScopedSpan span("shard.solve");

  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  model::Solution sol = model::Solution::empty_for(inst);
  if (stats != nullptr) *stats = {};
  if (n == 0 || k == 0) return sol;

  const core::Deadline& global = config.solve.deadline;
  if (global.expired()) {
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("shard");
    return sol;
  }

  const Partition part = make_partition(inst, config);
  const std::size_t shards = part.customers.size();

  // Materialize sub-instances for the shards that have both customers and
  // antennas; everything else contributes nothing a solve could use (an
  // antenna-less shard's customers are only reachable via seam repair).
  struct Sub {
    std::size_t shard = 0;
    model::Instance inst;
    model::Solution sol;
  };
  std::vector<Sub> subs;
  for (std::size_t s = 0; s < shards; ++s) {
    if (part.customers[s].empty() || part.antennas[s].empty()) continue;
    std::vector<model::Customer> customers;
    customers.reserve(part.customers[s].size());
    for (std::size_t i : part.customers[s]) {
      customers.push_back(inst.customer(i));
    }
    std::vector<model::AntennaSpec> antennas;
    antennas.reserve(part.antennas[s].size());
    for (std::size_t j : part.antennas[s]) {
      antennas.push_back(inst.antenna(j));
    }
    subs.push_back(
        {s, model::Instance(std::move(customers), std::move(antennas)), {}});
  }

  // Deadline slices: shards run in waves of thread_count(0), so give each
  // shard remaining/waves seconds capped by the global budget. Each slice is
  // a child of the global deadline (core::Deadline::after_at_most) and
  // reads its chain at every check, so an external cancel or SIGINT stops
  // in-flight shard sub-solves at their next check instead of being
  // observed only between phases.
  core::SolveOptions sub_opts = config.solve;
  double slice_seconds = -1.0;
  if (global.limited() && !subs.empty()) {
    const std::size_t lanes = par::thread_count(0);
    const std::size_t waves = (subs.size() + lanes - 1) / lanes;
    slice_seconds =
        global.remaining_seconds() / static_cast<double>(waves);
  }

  const auto solve_one = [&](std::size_t t) {
    Sub& sub = subs[t];
    sectors::GreedyConfig gc;
    gc.oracle = config.oracle;
    gc.solve = sub_opts;
    if (global.limited()) {
      gc.solve.deadline = core::Deadline::after_at_most(slice_seconds, global);
    }
    sub.sol = sectors::solve_greedy(sub.inst, gc);
  };
  par::parallel_for(subs.size(), 0, solve_one);

  // Merge: shards are customer- and antenna-disjoint, so the union of
  // their (feasible) solutions is feasible for the full instance.
  for (const Sub& sub : subs) {
    const std::vector<std::size_t>& cust = part.customers[sub.shard];
    const std::vector<std::size_t>& ants = part.antennas[sub.shard];
    for (std::size_t lj = 0; lj < ants.size(); ++lj) {
      sol.alpha[ants[lj]] = sub.sol.alpha[lj];
    }
    for (std::size_t li = 0; li < cust.size(); ++li) {
      const std::int32_t a = sub.sol.assign[li];
      if (a != model::kUnserved) {
        sol.assign[cust[li]] =
            static_cast<std::int32_t>(ants[static_cast<std::size_t>(a)]);
      }
    }
    sol.status = model::worst_of(sol.status, sub.sol.status);
  }

  // Boundary repair: pick up unserved customers near angular seams with
  // whatever residual capacity the final sectors have. Assign-only, so the
  // merged solution never degrades; first fitting antenna in ascending
  // index keeps it deterministic.
  std::size_t moved = 0;
  if (part.wedges > 1) {
    const double wedge_width = geom::kTwoPi / static_cast<double>(part.wedges);
    double eps = config.seam_eps;
    if (eps < 0.0) {
      double max_rho = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        max_rho = std::max(max_rho, inst.antenna(j).rho);
      }
      eps = std::min(max_rho, wedge_width);
    }
    std::vector<double> residual(k, 0.0);
    const std::vector<double> loads = model::antenna_loads(inst, sol);
    for (std::size_t j = 0; j < k; ++j) {
      residual[j] = inst.antenna(j).capacity - loads[j];
    }
    std::vector<geom::Sector> sectors;
    sectors.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      sectors.push_back(inst.sector(j, sol.alpha[j]));
    }
    // Track the largest residual so the common post-solve state -- every
    // antenna packed to capacity -- degenerates the repair walk to a cheap
    // scan that never touches the sector tests. Recomputed only after an
    // assignment (rare), so the walk stays O(n + moved * k).
    double max_residual = 0.0;
    for (double r : residual) max_residual = std::max(max_residual, r);
    bool expired = false;
    for (std::size_t i = 0; i < n && !expired; ++i) {
      if ((i & 4095u) == 0 && global.expired()) {
        expired = true;
        break;
      }
      if (sol.assign[i] != model::kUnserved) continue;
      const double d = inst.demand(i);
      if (d > max_residual) continue;
      const double offset =
          inst.theta(i) - wedge_width * std::floor(inst.theta(i) / wedge_width);
      const double seam_dist = std::min(offset, wedge_width - offset);
      if (seam_dist > eps) continue;
      const geom::Polar p{inst.theta(i), inst.radius(i)};
      for (std::size_t j = 0; j < k; ++j) {
        if (residual[j] >= d && sectors[j].contains(p)) {
          sol.assign[i] = static_cast<std::int32_t>(j);
          residual[j] -= d;
          ++moved;
          max_residual = 0.0;
          for (double r : residual) max_residual = std::max(max_residual, r);
          break;
        }
      }
    }
    if (expired) {
      sol.status = model::SolveStatus::kBudgetExhausted;
    }
  }

  if (sol.status == model::SolveStatus::kBudgetExhausted) {
    core::note_expired("shard");
  }
  c_shards.add(subs.size());
  c_repair.add(moved);
  if (stats != nullptr) {
    stats->shards = subs.size();
    stats->repair_moved = moved;
  }
  verify::debug_postcondition(inst, sol, "shard.solve");
  return sol;
}

}  // namespace sectorpack::shard
