#include "src/sectors/sectors.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/assign/assign.hpp"
#include "src/model/io.hpp"
#include "src/model/validate.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/adversarial.hpp"
#include "src/sim/generators.hpp"

namespace sectors = sectorpack::sectors;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;
namespace knapsack = sectorpack::knapsack;
namespace single = sectorpack::single;
namespace assign = sectorpack::assign;
namespace obs = sectorpack::obs;

namespace {

model::Instance random_p3(std::uint64_t seed, std::size_t n, std::size_t k,
                          bool heterogeneous) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(1.0, 12.0),
                         static_cast<double>(rng.uniform_int(1, 7)));
  }
  if (heterogeneous) {
    for (std::size_t j = 0; j < k; ++j) {
      b.add_antenna(rng.uniform(0.6, 2.4), rng.uniform(6.0, 14.0),
                    static_cast<double>(rng.uniform_int(5, 18)));
    }
  } else {
    b.add_identical_antennas(k, 1.5, 14.0,
                             static_cast<double>(rng.uniform_int(6, 16)));
  }
  return b.build();
}

}  // namespace

TEST(SectorsGreedy, AlwaysFeasible) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const model::Instance inst = random_p3(seed, 20, 3, seed % 2 == 0);
    const model::Solution sol = sectors::solve_greedy(inst);
    const auto report = model::validate(inst, sol);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                           << (report.errors.empty() ? "" : report.errors[0]);
  }
}

TEST(SectorsGreedy, AtMostExact) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const model::Instance inst = random_p3(seed + 40, 7, 2, seed % 2 == 0);
    const double greedy =
        model::served_demand(inst, sectors::solve_greedy(inst));
    const double exact =
        model::served_demand(inst, sectors::solve_exact(inst));
    EXPECT_LE(greedy, exact + 1e-9) << "seed " << seed;
    // First-round property: greedy serves at least the best single antenna,
    // hence at least exact/k for identical antennas.
    EXPECT_GE(greedy + 1e-9, exact / 2.0 * 0.5)  // conservative floor
        << "seed " << seed;
  }
}

TEST(SectorsExact, FeasibleAndDominatesEverything) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const model::Instance inst = random_p3(seed + 80, 6, 2, true);
    const model::Solution exact = sectors::solve_exact(inst);
    EXPECT_TRUE(model::is_feasible(inst, exact));
    const double ve = model::served_demand(inst, exact);
    EXPECT_GE(ve + 1e-9,
              model::served_demand(inst, sectors::solve_greedy(inst)));
    EXPECT_GE(ve + 1e-9,
              model::served_demand(inst, sectors::solve_local_search(inst)));
    EXPECT_GE(ve + 1e-9, model::served_demand(
                             inst, sectors::solve_uniform_orientations(inst)));
  }
}

TEST(SectorsLocalSearch, NeverWorseThanGreedy) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const model::Instance inst = random_p3(seed + 120, 18, 3, seed % 2 == 0);
    const double greedy =
        model::served_demand(inst, sectors::solve_greedy(inst));
    const model::Solution ls = sectors::solve_local_search(inst);
    EXPECT_TRUE(model::is_feasible(inst, ls));
    EXPECT_GE(model::served_demand(inst, ls) + 1e-9, greedy)
        << "seed " << seed;
  }
}

TEST(SectorsImprove, NeverDegrades) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const model::Instance inst = random_p3(seed + 160, 15, 3, true);
    const model::Solution start = sectors::solve_uniform_orientations(inst);
    const double before = model::served_demand(inst, start);
    const model::Solution better = sectors::improve(inst, start);
    EXPECT_TRUE(model::is_feasible(inst, better));
    EXPECT_GE(model::served_demand(inst, better) + 1e-9, before)
        << "seed " << seed;
  }
}

TEST(SectorsGreedy, RangeShadowTrapPinsGreedyNearHalf) {
  const model::Instance inst = sim::range_shadow_trap();
  const model::Solution greedy = sectors::solve_greedy(inst);
  const model::Solution exact = sectors::solve_exact(inst);
  EXPECT_TRUE(model::is_feasible(inst, greedy));
  EXPECT_TRUE(model::is_feasible(inst, exact));
  const double vg = model::served_demand(inst, greedy);
  const double ve = model::served_demand(inst, exact);
  EXPECT_DOUBLE_EQ(ve, 9.9);  // u -> long-range antenna, v -> short-range
  EXPECT_DOUBLE_EQ(vg, 5.0);  // greedy strands u
  EXPECT_GE(vg / ve, 0.5);    // still above the 1/2 floor
  EXPECT_LE(vg / ve, 0.51);
}

TEST(SectorsExact, TupleLimitThrows) {
  const model::Instance inst = random_p3(7, 30, 4, false);
  EXPECT_THROW((void)sectors::solve_exact(inst, /*tuple_limit=*/10),
               std::invalid_argument);
}

TEST(SectorsAll, ZeroAntennas) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 2.0);
  const model::Instance inst = b.build();
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sectors::solve_greedy(inst)),
                   0.0);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sectors::solve_exact(inst)),
                   0.0);
}

TEST(SectorsAll, MoreAntennasThanCustomers) {
  const model::Instance inst = random_p3(9, 3, 6, false);
  const model::Solution greedy = sectors::solve_greedy(inst);
  const model::Solution ls = sectors::solve_local_search(inst);
  EXPECT_TRUE(model::is_feasible(inst, greedy));
  EXPECT_TRUE(model::is_feasible(inst, ls));
}

TEST(SectorsGreedy, IdenticalFastPathMatchesGeneric) {
  // The identical-antenna shortcut must not change results: compare against
  // a clone instance with an infinitesimally different capacity on one
  // antenna (forcing the generic path) -- values should coincide because
  // the perturbation is too small to matter combinatorially.
  sim::Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    model::InstanceBuilder b1;
    model::InstanceBuilder b2;
    const std::size_t n = 10 + rng.uniform_int(10);
    for (std::size_t i = 0; i < n; ++i) {
      const double theta = rng.uniform(0.0, geom::kTwoPi);
      const double r = rng.uniform(1.0, 9.0);
      const double d = static_cast<double>(rng.uniform_int(1, 5));
      b1.add_customer_polar(theta, r, d);
      b2.add_customer_polar(theta, r, d);
    }
    const double cap = 12.0;
    b1.add_identical_antennas(3, 1.4, 10.0, cap);
    b2.add_antenna(1.4, 10.0, cap + 1e-7);  // generic path
    b2.add_antenna(1.4, 10.0, cap);
    b2.add_antenna(1.4, 10.0, cap);
    const double v1 =
        model::served_demand(b1.build(), sectors::solve_greedy(b1.build()));
    const double v2 =
        model::served_demand(b2.build(), sectors::solve_greedy(b2.build()));
    EXPECT_NEAR(v1, v2, 1e-6) << "trial " << trial;
  }
}

TEST(SectorsUniform, OrientationsEvenlySpaced) {
  const model::Instance inst = random_p3(3, 10, 4, false);
  const model::Solution sol = sectors::solve_uniform_orientations(inst);
  ASSERT_EQ(sol.alpha.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(sol.alpha[j], geom::kTwoPi * static_cast<double>(j) / 4.0,
                1e-12);
  }
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

// Parameterized feasibility fuzz across (n, k) shapes and oracles. gtest
// names each case by dumping its bytes, so the bytes after the bool are
// spelled out as zeros rather than left as padding.
struct ShapeCase {
  std::size_t n;
  std::size_t k;
  bool heterogeneous;
  std::array<char, 7> zeros{};
};
static_assert(sizeof(ShapeCase) == 3 * sizeof(std::size_t),
              "ShapeCase must have no padding bytes");

class SectorsShapeProperty : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(SectorsShapeProperty, AllSolversFeasibleAndOrdered) {
  const ShapeCase sc = GetParam();
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const model::Instance inst =
        random_p3(seed * 31 + sc.n + sc.k, sc.n, sc.k, sc.heterogeneous);
    const model::Solution greedy = sectors::solve_greedy(inst);
    const model::Solution ls = sectors::solve_local_search(inst);
    const model::Solution uniform =
        sectors::solve_uniform_orientations(inst);
    EXPECT_TRUE(model::is_feasible(inst, greedy));
    EXPECT_TRUE(model::is_feasible(inst, ls));
    EXPECT_TRUE(model::is_feasible(inst, uniform));
    EXPECT_GE(model::served_demand(inst, ls) + 1e-9,
              model::served_demand(inst, greedy));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SectorsShapeProperty,
                         ::testing::Values(ShapeCase{1, 1, false},
                                           ShapeCase{5, 1, true},
                                           ShapeCase{12, 2, false},
                                           ShapeCase{12, 2, true},
                                           ShapeCase{25, 4, false},
                                           ShapeCase{25, 4, true},
                                           ShapeCase{40, 6, true}));

// ---------------------------------------------------------------------------
// Lazy re-evaluation: the round loop and local search sweep an antenna again
// only after a customer in its band changed hands. The references below are
// the eager loops they replaced, which sweep every unused antenna every
// round and every antenna on every local-search move.

namespace {

model::Solution eager_greedy(const model::Instance& inst,
                             const sectors::GreedyConfig& config) {
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  model::Solution sol = model::Solution::empty_for(inst);
  std::vector<bool> served(n, false);
  std::vector<bool> used(k, false);
  const bool identical = inst.antennas_identical();
  std::vector<knapsack::OracleCache> caches(identical ? 1 : k);
  for (std::size_t round = 0; round < k; ++round) {
    std::size_t best_j = k;
    single::WindowChoice best;
    for (std::size_t j = 0; j < k; ++j) {
      if (used[j]) continue;
      single::WindowChoice pick = sectors::sweep_unserved(
          inst, j, served, config, &caches[identical ? 0 : j]);
      if (pick.value > best.value) {
        best = std::move(pick);
        best_j = j;
      }
      if (identical) break;
    }
    if (best_j == k) break;
    used[best_j] = true;
    sol.alpha[best_j] = best.alpha;
    for (const std::size_t i : best.chosen) {
      served[i] = true;
      sol.assign[i] = static_cast<std::int32_t>(best_j);
    }
  }
  return sol;
}

model::Solution eager_improve(const model::Instance& inst, model::Solution sol,
                              const sectors::LocalSearchConfig& config) {
  const std::size_t n = inst.num_customers();
  const std::size_t k = inst.num_antennas();
  std::vector<double> thetas;
  std::vector<double> values;
  std::vector<double> demands;
  std::vector<std::size_t> index;
  std::vector<std::size_t> in_band;
  std::vector<knapsack::OracleCache> caches(k);
  bool improved_any = true;
  for (std::size_t pass = 0; pass < config.max_passes && improved_any;
       ++pass) {
    improved_any = false;
    for (std::size_t j = 0; j < k; ++j) {
      const auto mine = static_cast<std::int32_t>(j);
      double current = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (sol.assign[i] == mine) current += inst.value(i);
      }
      inst.in_range_customers(j, in_band);
      thetas.clear();
      values.clear();
      demands.clear();
      index.clear();
      for (const std::size_t i : in_band) {
        if (sol.assign[i] == model::kUnserved || sol.assign[i] == mine) {
          thetas.push_back(inst.theta(i));
          values.push_back(inst.value(i));
          demands.push_back(inst.demand(i));
          index.push_back(i);
        }
      }
      const single::WindowChoice choice = single::best_window_weighted(
          thetas, values, demands, inst.antenna(j).rho,
          inst.antenna(j).capacity, config.oracle, &caches[j], index);
      if (choice.value > current + 1e-12) {
        for (std::size_t i = 0; i < n; ++i) {
          if (sol.assign[i] == mine) sol.assign[i] = model::kUnserved;
        }
        sol.alpha[j] = choice.alpha;
        for (const std::size_t local : choice.chosen) {
          sol.assign[index[local]] = mine;
        }
        improved_any = true;
      }
    }
  }
  model::Solution reassigned =
      assign::solve_successive(inst, sol.alpha, config.oracle, config.solve);
  const model::SolveStatus status =
      model::worst_of(sol.status, reassigned.status);
  if (model::served_value(inst, reassigned) >
      model::served_value(inst, sol)) {
    reassigned.status = status;
    return reassigned;
  }
  sol.status = status;
  return sol;
}

/// Customers on a disk of radius 30 under six annular antennas whose bands
/// are partly disjoint and partly overlapping. With `twins`, antenna 3
/// copies antenna 2's spec, so the two tie until one of them commits.
model::Instance annular_fleet(std::uint64_t seed, std::size_t n,
                              bool weighted, bool fractional, bool twins) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    const double r = rng.uniform(0.5, 30.0);
    const double demand = fractional
                              ? rng.uniform(0.5, 6.0)
                              : static_cast<double>(rng.uniform_int(1, 7));
    if (weighted) {
      b.add_weighted_customer_polar(theta, r, demand, rng.uniform(0.5, 9.0));
    } else {
      b.add_customer_polar(theta, r, demand);
    }
  }
  constexpr std::array<std::array<double, 2>, 6> kBands = {
      {{0.0, 8.0}, {6.0, 14.0}, {16.0, 22.0}, {16.0, 22.0}, {24.0, 30.0},
       {20.0, 30.0}}};
  double rho = 0.0;
  double capacity = 0.0;
  for (std::size_t j = 0; j < kBands.size(); ++j) {
    if (!(twins && j == 3)) {
      rho = rng.uniform(0.5, 2.0);
      capacity = static_cast<double>(rng.uniform_int(8, 30));
    }
    b.add_antenna(rho, kBands[j][1], capacity, kBands[j][0]);
  }
  return b.build();
}

/// `k` antennas on disjoint annuli of width 2.5, with distinct widths and
/// capacities, over customers spread across all of them.
model::Instance disjoint_rings(std::uint64_t seed, std::size_t n,
                               std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(1.0, 4.0 * static_cast<double>(k)),
                         static_cast<double>(rng.uniform_int(1, 6)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    const auto jd = static_cast<double>(j);
    b.add_antenna(0.8 + 0.1 * jd, 3.5 + 4.0 * jd, 10.0 + 3.0 * jd,
                  1.0 + 4.0 * jd);
  }
  return b.build();
}

/// Greedy commits antenna 0 on the lone customer at angle 0 (value 9); then
/// antenna 1 takes x, which sits between y and z at angle pi. Without x,
/// the density-greedy oracle packs y and z for antenna 0, worth 11, where
/// with x it packed only x (7). So local search moves antenna 0 only if x's
/// commit dirtied antenna 0's verdict although antenna 0 was already used.
model::Instance used_antenna_dirtied() {
  model::InstanceBuilder b;
  b.add_weighted_customer_polar(0.0, 5.0, 9.0, 9.0);
  b.add_weighted_customer_polar(geom::kPi, 5.0, 5.0, 5.5);        // y
  b.add_weighted_customer_polar(geom::kPi + 0.1, 5.0, 6.0, 7.0);  // x
  b.add_weighted_customer_polar(geom::kPi + 0.2, 5.0, 5.0, 5.5);  // z
  b.add_antenna(0.5, 10.0, 10.0);
  b.add_antenna(0.5, 10.0, 6.0);
  return b.build();
}

}  // namespace

TEST(LazyGreedy, MatchesEagerReference) {
  struct Case {
    std::string name;
    model::Instance inst;
  };
  std::vector<Case> cases;
  cases.push_back({"used-antenna-dirtied", used_antenna_dirtied()});
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    cases.push_back({"random_p3/" + std::to_string(seed),
                     random_p3(seed + 300, 120, 5, true)});
    cases.push_back({"annular/" + std::to_string(seed),
                     annular_fleet(seed + 310, 150, false, false, false)});
    cases.push_back({"annular-weighted-twins/" + std::to_string(seed),
                     annular_fleet(seed + 320, 150, true, false, true)});
    // Fractional demands stay small: the exact oracle's branch and bound
    // runs out of nodes on a few hundred fractional customers.
    cases.push_back({"annular-fractional/" + std::to_string(seed),
                     annular_fleet(seed + 330, 30, seed % 2 == 0, true,
                                   seed % 2 == 1)});
  }
  const std::array<knapsack::Oracle, 3> oracles = {
      knapsack::Oracle::exact(), knapsack::Oracle::fptas(0.2),
      knapsack::Oracle::greedy()};
  for (const Case& c : cases) {
    for (const knapsack::Oracle& oracle : oracles) {
      SCOPED_TRACE(c.name + " oracle " +
                   std::to_string(static_cast<int>(oracle.kind())));
      sectors::GreedyConfig gc;
      gc.oracle = oracle;
      sectors::LocalSearchConfig lc;
      lc.oracle = oracle;
      const model::Solution eager = eager_greedy(c.inst, gc);
      EXPECT_EQ(model::to_string(sectors::solve_greedy(c.inst, gc)),
                model::to_string(eager));
      EXPECT_EQ(model::to_string(sectors::solve_local_search(c.inst, lc)),
                model::to_string(eager_improve(c.inst, eager, lc)));
      // From a greedy start the first pass rarely moves anything; from
      // uniform orientations it does, so later passes replay verdicts that
      // those moves must have dirtied.
      const model::Solution uniform =
          sectors::solve_uniform_orientations(c.inst, oracle);
      EXPECT_EQ(model::to_string(sectors::improve(c.inst, uniform, lc)),
                model::to_string(eager_improve(c.inst, uniform, lc)));
    }
  }
}

TEST(LazyGreedy, DisjointBandsSweepEachAntennaOnce) {
  constexpr std::size_t k = 5;
  const model::Instance inst = disjoint_rings(7, 400, k);
  sectors::GreedyConfig config;
  std::size_t calls = 0;
  const model::Solution lazy = sectors::greedy_rounds(
      inst, config.solve.deadline,
      [&](std::size_t j, const std::vector<bool>& served) {
        ++calls;
        return sectors::sweep_unserved(inst, j, served, config, nullptr);
      });
  EXPECT_EQ(calls, k);
  EXPECT_EQ(model::to_string(lazy), model::to_string(eager_greedy(inst, {})));

  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  const model::Solution ls = sectors::solve_local_search(inst);
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_TRUE(model::is_feasible(inst, ls));
  EXPECT_EQ(after.counter("sweep.builds") - before.counter("sweep.builds"), k);
  EXPECT_EQ(after.counter("local_search.moves_tried") -
                before.counter("local_search.moves_tried"),
            k);
}

TEST(LazyGreedy, TruncatedVerdictIsNotReused) {
  constexpr std::size_t k = 5;
  constexpr std::size_t truncated = 2;
  const model::Instance inst = disjoint_rings(11, 400, k);
  sectors::GreedyConfig config;
  std::size_t round = 0;
  std::vector<std::size_t> calls(k, 0);
  std::vector<std::size_t> rounds_seen;  // rounds that evaluated `truncated`
  std::size_t committed_in = k;          // round `truncated` committed in
  const model::Solution sol = sectors::greedy_rounds(
      inst, config.solve.deadline,
      [&](std::size_t j, const std::vector<bool>& served) {
        ++calls[j];
        single::WindowChoice pick =
            sectors::sweep_unserved(inst, j, served, config, nullptr);
        if (j == truncated) {
          pick.complete = false;
          rounds_seen.push_back(round);
        }
        return pick;
      },
      [&](std::size_t j, const single::WindowChoice&) {
        if (j == truncated) committed_in = round;
        ++round;
      });
  EXPECT_TRUE(model::is_feasible(inst, sol));
  ASSERT_LT(committed_in, k);
  EXPECT_GT(committed_in, 0u);  // so some round did reuse other verdicts
  std::vector<std::size_t> every_round(committed_in + 1);
  for (std::size_t r = 0; r <= committed_in; ++r) every_round[r] = r;
  EXPECT_EQ(rounds_seen, every_round);
  for (std::size_t j = 0; j < k; ++j) {
    if (j != truncated) {
      EXPECT_EQ(calls[j], 1u) << "antenna " << j;
    }
  }
}
