#include "src/assign/assign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "src/bounds/upper.hpp"
#include "src/geom/polar_grid.hpp"
#include "src/model/validate.hpp"
#include "src/sim/adversarial.hpp"
#include "src/sim/generators.hpp"

namespace assign = sectorpack::assign;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;
namespace bounds = sectorpack::bounds;

namespace {

// Random angles-only instance with k antennas at fixed orientations.
struct Fixture {
  model::Instance inst;
  std::vector<double> alphas;
};

Fixture random_fixture(std::uint64_t seed, std::size_t n, std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(1.0, 9.0),
                         static_cast<double>(rng.uniform_int(1, 12)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    b.add_antenna(rng.uniform(0.5, geom::kTwoPi), 10.0,
                  static_cast<double>(rng.uniform_int(5, 40)));
  }
  Fixture f{b.build(), {}};
  for (std::size_t j = 0; j < k; ++j) {
    f.alphas.push_back(rng.uniform(0.0, geom::kTwoPi));
  }
  return f;
}

}  // namespace

TEST(Eligibility, MatchesSectorContainment) {
  const Fixture f = random_fixture(21, 30, 3);
  const assign::Eligibility e =
      assign::compute_eligibility(f.inst, f.alphas);
  const std::vector<std::vector<std::int32_t>> per_customer =
      assign::per_customer(e, f.inst.num_customers());
  ASSERT_EQ(e.per_antenna.size(), 3u);
  ASSERT_EQ(per_customer.size(), 30u);
  for (std::size_t j = 0; j < 3; ++j) {
    const geom::Sector sec = f.inst.sector(j, f.alphas[j]);
    for (std::size_t i = 0; i < 30; ++i) {
      const bool eligible =
          std::find(e.per_antenna[j].begin(), e.per_antenna[j].end(), i) !=
          e.per_antenna[j].end();
      EXPECT_EQ(eligible, sec.contains(geom::Polar{f.inst.theta(i),
                                                   f.inst.radius(i)}));
      const bool from_customer =
          std::find(per_customer[i].begin(), per_customer[i].end(),
                    static_cast<std::int32_t>(j)) != per_customer[i].end();
      EXPECT_EQ(eligible, from_customer);
    }
  }
}

namespace {

// Restores the process-wide spatial mode on scope exit.
struct ModeGuard {
  geom::SpatialIndexMode saved = geom::spatial_index_mode();
  ~ModeGuard() { geom::set_spatial_index_mode(saved); }
};

// The double loop compute_eligibility ran before the band table: every
// customer against every oriented sector, filling both orientations.
struct FullScan {
  std::vector<std::vector<std::size_t>> per_antenna;
  std::vector<std::vector<std::int32_t>> per_customer;
};

FullScan full_scan(const model::Instance& inst,
                   std::span<const double> alphas) {
  FullScan e;
  e.per_antenna.resize(inst.num_antennas());
  e.per_customer.resize(inst.num_customers());
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    const geom::Sector sec = inst.sector(j, alphas[j]);
    for (std::size_t i = 0; i < inst.num_customers(); ++i) {
      if (sec.contains(geom::Polar{inst.theta(i), inst.radius(i)})) {
        e.per_antenna[j].push_back(i);
        e.per_customer[i].push_back(static_cast<std::int32_t>(j));
      }
    }
  }
  return e;
}

// Above the grid's size threshold, so kAuto switches to the grid after its
// deferral; full-circle, annular and overlapping antennas, customers at
// the origin and on the angles the alphas below sit next to.
model::Instance eligibility_instance(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<model::Customer> customers;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t kind = rng.uniform_int(0, 9);
    const double r = kind == 0 ? 0.0 : rng.uniform(0.0, 60.0);
    const double t = kind == 1   ? 0.0
                     : kind == 2 ? std::nextafter(geom::kTwoPi, 0.0)
                                 : rng.uniform(0.0, geom::kTwoPi);
    customers.push_back({geom::from_polar(t, r),
                         static_cast<double>(rng.uniform_int(1, 9))});
  }
  const std::vector<model::AntennaSpec> antennas = {
      {geom::kTwoPi, 30.0, 50.0, 0.0},   // full circle
      {geom::kTwoPi, 50.0, 50.0, 20.0},  // full circle, annular
      {0.8, 40.0, 30.0, 0.0},
      {1.3, 55.0, 40.0, 25.0},           // annular, overlaps the two above
      {0.8, 40.0, 30.0, 0.0},            // the third again
      {rng.uniform(0.1, 3.0), rng.uniform(10.0, 60.0), 20.0, 0.0},
  };
  return {customers, antennas};
}

}  // namespace

// compute_eligibility's band and grid paths against the full scan, under
// all three spatial modes; kAuto meets both paths, since the instance is
// queried past the grid's build deferral.
TEST(Eligibility, MatchesFullScanReference) {
  ModeGuard guard;
  const double near_two_pi = std::nextafter(geom::kTwoPi, 0.0);
  for (const geom::SpatialIndexMode mode :
       {geom::SpatialIndexMode::kAuto, geom::SpatialIndexMode::kForceFlat,
        geom::SpatialIndexMode::kForceIndexed}) {
    geom::set_spatial_index_mode(mode);
    for (const std::uint64_t seed : {31u, 32u}) {
      const model::Instance inst = eligibility_instance(seed);
      sim::Rng rng(seed + 1000);
      for (int q = 0; q < 2 * static_cast<int>(geom::kGridBuildAfterQueries);
           ++q) {
        std::vector<double> alphas(inst.num_antennas());
        for (double& a : alphas) {
          switch (rng.uniform_int(0, 5)) {
            case 0: a = 0.0; break;
            case 1: a = near_two_pi; break;
            case 2: a = geom::kTwoPi; break;
            case 3: a = -1e-17; break;
            default: a = rng.uniform(0.0, geom::kTwoPi); break;
          }
        }
        const assign::Eligibility e = assign::compute_eligibility(inst, alphas);
        const FullScan ref = full_scan(inst, alphas);
        EXPECT_EQ(e.per_antenna, ref.per_antenna)
            << "seed " << seed << " query " << q;
        EXPECT_EQ(assign::per_customer(e, inst.num_customers()),
                  ref.per_customer)
            << "seed " << seed << " query " << q;
      }
    }
  }
}

TEST(Eligibility, SizeMismatchThrows) {
  const Fixture f = random_fixture(22, 5, 2);
  const std::vector<double> wrong = {0.0};
  EXPECT_THROW((void)assign::compute_eligibility(f.inst, wrong),
               std::invalid_argument);
}

TEST(AssignGreedy, AlwaysFeasible) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Fixture f = random_fixture(seed, 25, 3);
    const model::Solution sol = assign::solve_greedy(f.inst, f.alphas);
    const auto report = model::validate(f.inst, sol);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                           << (report.errors.empty() ? "" : report.errors[0]);
  }
}

TEST(AssignSuccessive, AlwaysFeasibleAllOracles) {
  using sectorpack::knapsack::Oracle;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Fixture f = random_fixture(seed + 100, 20, 3);
    for (const Oracle& o :
         {Oracle::exact(), Oracle::greedy(), Oracle::fptas(0.2)}) {
      const model::Solution sol = assign::solve_successive(f.inst, f.alphas, o);
      EXPECT_TRUE(model::is_feasible(f.inst, sol))
          << "seed " << seed << " oracle " << o.name();
    }
  }
}

TEST(AssignExact, OptimalVsEnumerationTiny) {
  // n <= 8: verify exact B&B against a direct exhaustive assignment search.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Fixture f = random_fixture(seed + 200, 7, 2);
    const model::Solution sol = assign::solve_exact(f.inst, f.alphas);
    EXPECT_TRUE(model::is_feasible(f.inst, sol));
    const double got = model::served_demand(f.inst, sol);

    // Exhaustive: each customer -> one of (k+1) choices.
    const std::vector<std::vector<std::int32_t>> per_customer =
        assign::per_customer(assign::compute_eligibility(f.inst, f.alphas),
                             f.inst.num_customers());
    const std::size_t n = f.inst.num_customers();
    const std::size_t k = f.inst.num_antennas();
    double best = 0.0;
    std::vector<std::size_t> choice(n, 0);
    for (;;) {
      std::vector<double> load(k, 0.0);
      double value = 0.0;
      bool ok = true;
      for (std::size_t i = 0; i < n && ok; ++i) {
        if (choice[i] == 0) continue;
        const auto j = static_cast<std::int32_t>(choice[i] - 1);
        const bool eligible =
            std::find(per_customer[i].begin(), per_customer[i].end(), j) !=
            per_customer[i].end();
        if (!eligible) {
          ok = false;
          break;
        }
        load[choice[i] - 1] += f.inst.demand(i);
        value += f.inst.demand(i);
      }
      if (ok) {
        for (std::size_t j = 0; j < k; ++j) {
          if (load[j] > f.inst.antenna(j).capacity + 1e-9) ok = false;
        }
      }
      if (ok) best = std::max(best, value);
      std::size_t pos = n;
      bool done = true;
      while (pos > 0) {
        --pos;
        if (++choice[pos] <= k) {
          done = false;
          break;
        }
        choice[pos] = 0;
      }
      if (done) break;
    }
    EXPECT_NEAR(got, best, 1e-9) << "seed " << seed;
  }
}

TEST(AssignExact, DominatesHeuristics) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Fixture f = random_fixture(seed + 300, 12, 3);
    const double exact =
        model::served_demand(f.inst, assign::solve_exact(f.inst, f.alphas));
    const double greedy =
        model::served_demand(f.inst, assign::solve_greedy(f.inst, f.alphas));
    const double successive = model::served_demand(
        f.inst, assign::solve_successive(f.inst, f.alphas));
    EXPECT_GE(exact + 1e-9, greedy);
    EXPECT_GE(exact + 1e-9, successive);
  }
}

TEST(AssignSuccessive, HalfOfExactWithExactOracle) {
  // Successive knapsack with an exact oracle is a 1/2-approximation for
  // Multiple Knapsack; verify the floor empirically.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Fixture f = random_fixture(seed + 400, 14, 3);
    const double exact =
        model::served_demand(f.inst, assign::solve_exact(f.inst, f.alphas));
    const double successive = model::served_demand(
        f.inst, assign::solve_successive(f.inst, f.alphas));
    EXPECT_GE(successive + 1e-9, 0.5 * exact) << "seed " << seed;
  }
}

TEST(AssignExact, FractionalBoundDominates) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Fixture f = random_fixture(seed + 500, 12, 3);
    const double exact =
        model::served_demand(f.inst, assign::solve_exact(f.inst, f.alphas));
    const double frac =
        bounds::fixed_orientation_fractional_bound(f.inst, f.alphas);
    EXPECT_GE(frac + 1e-6, exact) << "seed " << seed;
  }
}

TEST(AssignLpRounding, AlwaysFeasible) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Fixture f = random_fixture(seed + 600, 25, 3);
    const model::Solution sol = assign::solve_lp_rounding(f.inst, f.alphas);
    const auto report = model::validate(f.inst, sol);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                           << (report.errors.empty() ? "" : report.errors[0]);
  }
}

TEST(AssignLpRounding, AtMostExactAndUsuallyStrong) {
  double ratio_sum = 0.0;
  int trials = 0;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const Fixture f = random_fixture(seed + 700, 14, 3);
    const double exact =
        model::served_demand(f.inst, assign::solve_exact(f.inst, f.alphas));
    if (exact <= 0.0) continue;
    const double rounded = model::served_demand(
        f.inst, assign::solve_lp_rounding(f.inst, f.alphas));
    EXPECT_LE(rounded, exact + 1e-9) << "seed " << seed;
    ratio_sum += rounded / exact;
    ++trials;
  }
  ASSERT_GT(trials, 0);
  // The flow LP has few fractional customers here; the mean ratio should
  // be high even though no worst-case floor is claimed.
  EXPECT_GE(ratio_sum / trials, 0.85);
}

TEST(AssignLpRounding, IntegralLpIsKeptVerbatim) {
  // Unit demands + integer capacity: the flow LP has an integral optimum
  // and the rounding must realize the full LP value.
  model::InstanceBuilder b;
  for (int i = 0; i < 9; ++i) {
    b.add_customer_polar(0.1 + 0.02 * i, 5.0, 1.0);
  }
  b.add_antenna(geom::kPi, 10.0, 4.0);
  b.add_antenna(geom::kPi, 10.0, 3.0);
  const model::Instance inst = b.build();
  const std::vector<double> alphas = {0.0, 0.0};
  const model::Solution sol = assign::solve_lp_rounding(inst, alphas);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 7.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(AssignLpRounding, WeightedFallsBackToSuccessive) {
  model::InstanceBuilder b;
  b.add_weighted_customer_polar(0.1, 5.0, 2.0, 9.0);
  b.add_weighted_customer_polar(0.15, 5.0, 2.0, 1.0);
  b.add_antenna(geom::kPi, 10.0, 2.0);
  const model::Instance inst = b.build();
  const std::vector<double> alphas = {0.0};
  const model::Solution sol = assign::solve_lp_rounding(inst, alphas);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  // Successive with an exact oracle picks the value-9 customer.
  EXPECT_DOUBLE_EQ(model::served_value(inst, sol), 9.0);
}

TEST(AssignGreedy, FragmentationTrapShowsGap) {
  const model::Instance inst = sim::fragmentation_trap();
  const std::vector<double> alphas(inst.num_antennas(), 0.0);
  const model::Solution greedy = assign::solve_greedy(inst, alphas);
  const model::Solution exact = assign::solve_exact(inst, alphas);
  EXPECT_TRUE(model::is_feasible(inst, greedy));
  EXPECT_TRUE(model::is_feasible(inst, exact));
  EXPECT_DOUBLE_EQ(model::served_demand(inst, exact), 16.0);
  EXPECT_LT(model::served_demand(inst, greedy),
            model::served_demand(inst, exact));
}

TEST(AssignAll, EmptyInstanceHandled) {
  const model::Instance inst{{}, {model::AntennaSpec{1.0, 10.0, 5.0}}};
  const std::vector<double> alphas = {0.0};
  EXPECT_DOUBLE_EQ(
      model::served_demand(inst, assign::solve_greedy(inst, alphas)), 0.0);
  EXPECT_DOUBLE_EQ(
      model::served_demand(inst, assign::solve_successive(inst, alphas)),
      0.0);
  EXPECT_DOUBLE_EQ(
      model::served_demand(inst, assign::solve_exact(inst, alphas)), 0.0);
}

TEST(AssignAll, ZeroCapacityServesNothing) {
  const model::Instance inst = model::InstanceBuilder{}
                                   .add_customer_polar(0.1, 5.0, 3.0)
                                   .add_antenna(geom::kPi, 10.0, 0.0)
                                   .build();
  const std::vector<double> alphas = {0.0};
  EXPECT_DOUBLE_EQ(
      model::served_demand(inst, assign::solve_exact(inst, alphas)), 0.0);
  EXPECT_DOUBLE_EQ(
      model::served_demand(inst, assign::solve_greedy(inst, alphas)), 0.0);
}
