#include "src/bounds/upper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/assign/assign.hpp"
#include "src/bounds/dinic.hpp"
#include "src/geom/sweep.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/validate.hpp"
#include "src/sectors/sectors.hpp"
#include "src/sim/generators.hpp"

namespace bounds = sectorpack::bounds;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;
namespace sectors = sectorpack::sectors;
namespace knapsack = sectorpack::knapsack;

TEST(Dinic, TrivialPath) {
  bounds::Dinic d(3);
  d.add_edge(0, 1, 5.0);
  d.add_edge(1, 2, 3.0);
  EXPECT_NEAR(d.max_flow(0, 2), 3.0, 1e-9);
}

TEST(Dinic, ParallelPaths) {
  bounds::Dinic d(4);
  d.add_edge(0, 1, 4.0);
  d.add_edge(0, 2, 2.0);
  d.add_edge(1, 3, 3.0);
  d.add_edge(2, 3, 5.0);
  EXPECT_NEAR(d.max_flow(0, 3), 5.0, 1e-9);
}

TEST(Dinic, ClassicAugmentingCross) {
  // The textbook example where the cross edge must carry flow back.
  bounds::Dinic d(4);
  d.add_edge(0, 1, 1.0);
  d.add_edge(0, 2, 1.0);
  d.add_edge(1, 2, 1.0);
  d.add_edge(1, 3, 1.0);
  d.add_edge(2, 3, 1.0);
  EXPECT_NEAR(d.max_flow(0, 3), 2.0, 1e-9);
}

TEST(Dinic, DisconnectedIsZero) {
  bounds::Dinic d(4);
  d.add_edge(0, 1, 7.0);
  d.add_edge(2, 3, 7.0);
  EXPECT_NEAR(d.max_flow(0, 3), 0.0, 1e-12);
}

TEST(Dinic, EdgeFlowAccounting) {
  bounds::Dinic d(3);
  const std::size_t e01 = d.add_edge(0, 1, 5.0);
  const std::size_t e12 = d.add_edge(1, 2, 3.0);
  const double f = d.max_flow(0, 2);
  EXPECT_NEAR(d.edge_flow(e01), f, 1e-9);
  EXPECT_NEAR(d.edge_flow(e12), f, 1e-9);
}

TEST(Dinic, FractionalCapacities) {
  bounds::Dinic d(4);
  d.add_edge(0, 1, 1.5);
  d.add_edge(0, 2, 2.25);
  d.add_edge(1, 3, 2.0);
  d.add_edge(2, 3, 1.75);
  EXPECT_NEAR(d.max_flow(0, 3), 1.5 + 1.75, 1e-9);
}

namespace {

model::Instance random_inst(std::uint64_t seed, std::size_t n,
                            std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(1.0, 12.0),
                         static_cast<double>(rng.uniform_int(1, 8)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    b.add_antenna(rng.uniform(0.6, 2.5), rng.uniform(6.0, 14.0),
                  static_cast<double>(rng.uniform_int(4, 20)));
  }
  return b.build();
}

}  // namespace

TEST(FractionalBound, DominatesExactAssignment) {
  namespace assign = sectorpack::assign;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const model::Instance inst = random_inst(seed, 10, 3);
    sim::Rng rng(seed + 999);
    std::vector<double> alphas;
    for (std::size_t j = 0; j < 3; ++j) {
      alphas.push_back(rng.uniform(0.0, geom::kTwoPi));
    }
    const double exact = model::served_demand(
        inst, assign::solve_exact(inst, alphas));
    const double frac =
        bounds::fixed_orientation_fractional_bound(inst, alphas);
    EXPECT_GE(frac + 1e-6, exact) << "seed " << seed;
    EXPECT_LE(frac, bounds::trivial_bound(inst) + 1e-6);
  }
}

TEST(FractionalBound, TightOnSaturatedUnitDemands) {
  // Unit demands, one antenna seeing everyone, integer capacity: the LP has
  // an integral optimum, so bound == exact.
  model::InstanceBuilder b;
  for (int i = 0; i < 8; ++i) {
    b.add_customer_polar(0.1 + 0.01 * i, 5.0, 1.0);
  }
  b.add_antenna(geom::kPi, 10.0, 5.0);
  const model::Instance inst = b.build();
  const std::vector<double> alphas = {0.0};
  EXPECT_NEAR(bounds::fixed_orientation_fractional_bound(inst, alphas), 5.0,
              1e-9);
}

TEST(OrientationFreeBound, DominatesExactP3) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const model::Instance inst = random_inst(seed + 50, 7, 2);
    const double exact =
        model::served_demand(inst, sectors::solve_exact(inst));
    const double bound = bounds::orientation_free_bound(inst);
    EXPECT_GE(bound + 1e-6, exact) << "seed " << seed;
    EXPECT_LE(bound, bounds::trivial_bound(inst) + 1e-6);
  }
}

TEST(OrientationFreeBound, ExactForSingleWideAntennaUncapacitated) {
  // One full-circle antenna with capacity above total demand: the bound
  // must equal total demand, which is also OPT.
  model::InstanceBuilder b;
  b.add_customer_polar(1.0, 5.0, 3.0);
  b.add_customer_polar(4.0, 5.0, 2.0);
  b.add_antenna(geom::kTwoPi, 10.0, 100.0);
  const model::Instance inst = b.build();
  EXPECT_NEAR(bounds::orientation_free_bound(inst), 5.0, 1e-9);
}

TEST(TrivialBound, MinOfDemandAndCapacity) {
  const model::Instance inst = model::InstanceBuilder{}
                                   .add_customer_polar(0.0, 1.0, 10.0)
                                   .add_antenna(1.0, 5.0, 4.0)
                                   .build();
  EXPECT_DOUBLE_EQ(bounds::trivial_bound(inst), 4.0);
}

TEST(FlowWindowBound, DominatesExactP3) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const model::Instance inst = random_inst(seed + 150, 7, 2);
    const double exact =
        model::served_demand(inst, sectors::solve_exact(inst));
    const double bound = bounds::flow_window_bound(inst);
    EXPECT_GE(bound + 1e-6, exact) << "seed " << seed;
  }
}

TEST(FlowWindowBound, AtMostOrientationFree) {
  // The flow formulation adds the serve-once constraint, so it can only
  // tighten the orientation-free bound.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const model::Instance inst = random_inst(seed + 200, 20, 3);
    EXPECT_LE(bounds::flow_window_bound(inst),
              bounds::orientation_free_bound(inst) + 1e-6)
        << "seed " << seed;
  }
}

TEST(FlowWindowBound, StrictlyTighterWhenAntennasShareOneCustomer) {
  // One customer, two antennas that can both see it: orientation-free sums
  // both antennas' windows (2 * demand), the flow bound caps at the
  // customer's demand.
  model::InstanceBuilder b;
  b.add_customer_polar(0.3, 5.0, 4.0);
  b.add_identical_antennas(2, geom::kPi, 10.0, 100.0);
  const model::Instance inst = b.build();
  EXPECT_NEAR(bounds::flow_window_bound(inst), 4.0, 1e-9);
  // (orientation_free_bound also gives 4 here because it is clamped by
  // total demand; remove the clamp effect with a second far customer.)
  model::InstanceBuilder b2;
  b2.add_customer_polar(0.3, 5.0, 4.0);
  b2.add_customer_polar(0.3 + geom::kPi, 50.0, 10.0);  // out of range
  b2.add_identical_antennas(2, geom::kPi, 10.0, 100.0);
  const model::Instance inst2 = b2.build();
  EXPECT_NEAR(bounds::flow_window_bound(inst2), 4.0, 1e-9);
  EXPECT_NEAR(bounds::orientation_free_bound(inst2), 8.0, 1e-9);
}

TEST(Bounds, OrderingChain) {
  // orientation_free <= trivial, and both dominate every feasible solution.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const model::Instance inst = random_inst(seed + 80, 15, 3);
    const double trivial = bounds::trivial_bound(inst);
    const double of = bounds::orientation_free_bound(inst);
    EXPECT_LE(of, trivial + 1e-9);
    const double greedy =
        model::served_demand(inst, sectors::solve_greedy(inst));
    EXPECT_LE(greedy, of + 1e-6);
  }
}

// ---------------------------------------------------------------------------
// The window ceilings W_j against the algorithm they replaced: copy every
// window's members and sort them in knapsack::fractional_upper_bound, and
// route the flow through one node per customer, reachable or not.

namespace {

double reference_window_value(const model::Instance& inst, std::size_t j) {
  std::vector<double> thetas;
  std::vector<double> values;
  std::vector<double> demands;
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    if (inst.in_range(i, j)) {
      thetas.push_back(inst.theta(i));
      values.push_back(inst.value(i));
      demands.push_back(inst.demand(i));
    }
  }
  double best = 0.0;
  const geom::WindowSweep sweep(thetas, inst.antenna(j).rho);
  std::vector<knapsack::Item> items;
  for (std::size_t w = 0; w < sweep.num_windows(); ++w) {
    items.clear();
    for (std::size_t m : sweep.members(w)) {
      items.push_back({values[m], demands[m]});
    }
    best = std::max(best, knapsack::fractional_upper_bound(
                              items, inst.antenna(j).capacity));
  }
  return best;
}

double reference_orientation_free(const model::Instance& inst) {
  double total = 0.0;
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    total += reference_window_value(inst, j);
  }
  return std::min(inst.total_value(), total);
}

double reference_flow_window(const model::Instance& inst) {
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  bounds::Dinic flow(n + k + 2);
  const std::size_t sink = n + k + 1;
  for (std::size_t i = 0; i < n; ++i) {
    flow.add_edge(0, 1 + i, inst.demand(i));
  }
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (inst.in_range(i, j)) {
        flow.add_edge(1 + i, 1 + n + j,
                      std::numeric_limits<double>::infinity());
      }
    }
    flow.add_edge(1 + n + j, sink,
                  std::min(inst.antenna(j).capacity,
                           reference_window_value(inst, j)));
  }
  return flow.max_flow(0, sink);
}

struct BoundCase {
  model::Instance inst;
  bool integral = true;  // every demand, value and capacity is an integer
};

// Small random instances that hit the sweep's and the flow's corner cases:
// co-located customers (repeated angles), annular antennas, full-circle
// beams (rho = 2*pi), zero capacity, customers no antenna reaches, and one
// antenna that sees nobody or a single customer. Even seeds give capacity
// to spare, so antennas compete for shared customers and the serve-once
// constraint binds. Weighted instances carry an explicit value per
// customer.
BoundCase random_bound_case(std::uint64_t seed, bool weighted,
                            bool integral) {
  sim::Rng rng(seed);
  const auto draw = [&](double lo, double hi) {
    return integral ? static_cast<double>(rng.uniform_int(
                          static_cast<std::int64_t>(lo),
                          static_cast<std::int64_t>(hi)))
                    : rng.uniform(lo, hi);
  };
  model::InstanceBuilder b;
  const auto add = [&](double theta, double r) {
    const double demand = draw(1.0, 8.0);
    if (weighted) {
      b.add_weighted_customer_polar(theta, r, demand, draw(0.0, 10.0));
    } else {
      b.add_customer_polar(theta, r, demand);
    }
  };
  const std::size_t n = 5 + rng.uniform_int(40);
  double last_theta = 0.0;
  double last_r = 5.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.uniform_int(4) == 0) {
      add(last_theta, last_r);  // same angle (and spot) as the previous one
      continue;
    }
    last_theta = rng.uniform(0.0, geom::kTwoPi);
    last_r = rng.uniform(1.0, 12.0);
    add(last_theta, last_r);
  }
  add(rng.uniform(0.0, geom::kTwoPi), 40.0);  // beyond every antenna
  // Near-field customer on odd seeds: the short antenna below sees it alone.
  if (seed % 2 == 1) add(rng.uniform(0.0, geom::kTwoPi), 0.3);
  b.add_antenna(1.0, 0.5, draw(1.0, 10.0));

  const std::size_t k = 1 + rng.uniform_int(4);
  for (std::size_t j = 0; j < k; ++j) {
    const double rho =
        rng.uniform_int(5) == 0 ? geom::kTwoPi : rng.uniform(0.3, 3.0);
    const double range = rng.uniform(4.0, 14.0);
    const double min_range =
        rng.uniform_int(3) == 0 ? rng.uniform(0.0, 0.8 * range) : 0.0;
    const double capacity = rng.uniform_int(6) == 0
                                ? 0.0
                                : draw(1.0, seed % 2 == 0 ? 150.0 : 25.0);
    b.add_antenna(rho, range, capacity, min_range);
  }
  return {b.build(), integral};
}

void expect_matches_reference(double got, double ref, bool integral,
                              const std::string& what) {
  if (integral) {
    EXPECT_EQ(got, ref) << what;  // integer sums are exact: bitwise equal
  } else {
    EXPECT_LE(std::abs(got - ref), 1e-12 * std::abs(ref))
        << what << ": got " << got << " want " << ref;
  }
}

}  // namespace

TEST(OrientationFreeBound, MatchesCopyAndSortReference) {
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    for (const bool weighted : {false, true}) {
      const BoundCase c = random_bound_case(seed, weighted, seed % 3 != 0);
      expect_matches_reference(
          bounds::orientation_free_bound(c.inst),
          reference_orientation_free(c.inst), c.integral,
          "seed " + std::to_string(seed) + (weighted ? " weighted" : ""));
    }
  }
}

TEST(FlowWindowBound, MatchesOneNodePerCustomerReference) {
  // Also checks that the corner cases random_bound_case promises occur.
  bool zero_capacity = false, full_circle = false, annular = false;
  bool lone_customer = false, empty_antenna = false;
  std::vector<std::size_t> band;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    const BoundCase c = random_bound_case(seed, false, seed % 3 != 0);
    expect_matches_reference(bounds::flow_window_bound(c.inst),
                             reference_flow_window(c.inst), c.integral,
                             "seed " + std::to_string(seed));
    c.inst.in_range_customers(0, band);
    lone_customer |= band.size() == 1;
    empty_antenna |= band.empty();
    for (const model::AntennaSpec& a : c.inst.antennas()) {
      zero_capacity |= a.capacity == 0.0;
      full_circle |= a.rho == geom::kTwoPi;
      annular |= a.min_range > 0.0;
    }
  }
  EXPECT_TRUE(zero_capacity && full_circle && annular && lone_customer &&
              empty_antenna);
}
