#include "src/single/single.hpp"

#include <gtest/gtest.h>

#include "src/model/validate.hpp"
#include "src/sim/adversarial.hpp"
#include "src/sim/generators.hpp"

namespace single = sectorpack::single;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;
namespace ks = sectorpack::knapsack;

namespace {

model::Instance random_p1(std::uint64_t seed, std::size_t n, double rho,
                          double capacity, bool some_out_of_range = false) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    const double r =
        some_out_of_range ? rng.uniform(1.0, 15.0) : rng.uniform(1.0, 9.0);
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi), r,
                         static_cast<double>(rng.uniform_int(1, 10)));
  }
  b.add_antenna(rho, 10.0, capacity);
  return b.build();
}

}  // namespace

TEST(SingleExact, MatchesReferenceRandom) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const double rho = 0.3 + 0.15 * static_cast<double>(seed % 10);
    const model::Instance inst =
        random_p1(seed, 3 + seed % 10, rho, 12.0 + static_cast<double>(seed % 20),
                  seed % 3 == 0);
    const model::Solution fast = single::solve_exact(inst);
    const model::Solution ref = single::solve_reference(inst);
    EXPECT_TRUE(model::is_feasible(inst, fast)) << "seed " << seed;
    EXPECT_NEAR(model::served_demand(inst, fast),
                model::served_demand(inst, ref), 1e-9)
        << "seed " << seed;
  }
}

TEST(SingleExact, FullCircleAntennaIsPureKnapsack) {
  const model::Instance inst = random_p1(7, 12, geom::kTwoPi, 25.0);
  const model::Solution sol = single::solve_exact(inst);
  // Compare against a direct knapsack over all customers.
  std::vector<ks::Item> items;
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    items.push_back({inst.demand(i), inst.demand(i)});
  }
  const ks::Result direct = ks::solve_exact_auto(items, 25.0);
  EXPECT_NEAR(model::served_demand(inst, sol), direct.value, 1e-9);
}

TEST(SingleExact, IgnoresOutOfRangeCustomers) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 4.0);    // in range
  b.add_customer_polar(0.12, 50.0, 9.0);  // out of range
  b.add_antenna(1.0, 10.0, 20.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 4.0);
  EXPECT_EQ(sol.assign[1], model::kUnserved);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(SingleGreedy, HalfOfExact) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const model::Instance inst =
        random_p1(seed + 50, 4 + seed % 12, 1.2, 15.0);
    const double exact = model::served_demand(inst, single::solve_exact(inst));
    const model::Solution greedy_sol = single::solve_greedy(inst);
    EXPECT_TRUE(model::is_feasible(inst, greedy_sol));
    const double greedy = model::served_demand(inst, greedy_sol);
    EXPECT_GE(greedy + 1e-9, 0.5 * exact) << "seed " << seed;
    EXPECT_LE(greedy, exact + 1e-9);
  }
}

TEST(SingleFptas, GuaranteeAcrossEps) {
  for (double eps : {0.3, 0.1, 0.05}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      const model::Instance inst =
          random_p1(seed + 90, 4 + seed % 10, 1.5, 18.0);
      const double exact =
          model::served_demand(inst, single::solve_exact(inst));
      const model::Solution sol = single::solve_fptas(inst, eps);
      EXPECT_TRUE(model::is_feasible(inst, sol));
      EXPECT_GE(model::served_demand(inst, sol) + 1e-9, (1.0 - eps) * exact)
          << "seed " << seed << " eps " << eps;
    }
  }
}

TEST(SingleSolve, BadAntennaIndexThrows) {
  const model::Instance inst = random_p1(1, 3, 1.0, 5.0);
  single::Config c;
  c.antenna = 5;
  EXPECT_THROW((void)single::solve(inst, c), std::invalid_argument);
}

TEST(SingleSolve, EmptyCustomerSet) {
  const model::Instance inst{{}, {model::AntennaSpec{1.0, 10.0, 5.0}}};
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 0.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(SingleSolve, SecondAntennaSelectable) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 4.0);
  b.add_antenna(1.0, 2.0, 20.0);   // too short ranged to serve anyone
  b.add_antenna(1.0, 10.0, 20.0);  // can serve
  const model::Instance inst = b.build();
  single::Config c;
  c.antenna = 1;
  const model::Solution sol = single::solve(inst, c);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 4.0);
  EXPECT_EQ(sol.assign[0], 1);
}

TEST(SingleGreedy, TrapApproachesHalf) {
  const model::Instance inst = sim::single_antenna_trap(1000.0);
  const double exact = model::served_demand(inst, single::solve_exact(inst));
  const double greedy =
      model::served_demand(inst, single::solve_greedy(inst));
  const double ratio = greedy / exact;
  EXPECT_GE(ratio, 0.5 - 1e-9);
  EXPECT_LE(ratio, 0.52);
}

TEST(SingleUniform, FastPathMatchesGeneralSweep) {
  // Unit-demand instances: the O(n log n) uniform fast path must agree
  // with the general sweep + knapsack on the served value.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    sim::Rng rng(seed + 4000);
    const std::size_t n = 3 + rng.uniform_int(40);
    std::vector<double> thetas(n);
    for (double& t : thetas) t = rng.uniform(0.0, geom::kTwoPi);
    const std::vector<double> demands(n, 1.0);
    const double rho = rng.uniform(0.2, geom::kTwoPi);
    const double cap = static_cast<double>(1 + rng.uniform_int(20));

    const single::WindowChoice fast =
        single::best_window_uniform(thetas, 1.0, rho, cap);
    const single::WindowChoice general = single::best_window(
        thetas, demands, rho, cap, ks::Oracle::exact());
    EXPECT_DOUBLE_EQ(fast.value, general.value)
        << "seed " << seed << " rho " << rho << " cap " << cap;
    EXPECT_EQ(fast.chosen.size(), general.chosen.size());
  }
}

TEST(SingleUniform, NonUnitUniformDemand) {
  // Demand 3 everywhere, capacity 10 -> at most 3 customers per window.
  const std::vector<double> thetas = {0.0, 0.1, 0.2, 0.3, 3.0};
  const single::WindowChoice choice =
      single::best_window_uniform(thetas, 3.0, 1.0, 10.0);
  EXPECT_DOUBLE_EQ(choice.value, 9.0);
  EXPECT_EQ(choice.chosen.size(), 3u);
}

TEST(SingleUniform, DetectorRejectsMixed) {
  const std::vector<double> unit = {1.0, 1.0};
  const std::vector<double> mixed = {1.0, 2.0};
  EXPECT_TRUE(single::uniform_demands(unit, unit));
  EXPECT_FALSE(single::uniform_demands(unit, mixed));
  EXPECT_FALSE(single::uniform_demands(mixed, unit));  // value != demand
}

TEST(SingleUniform, DispatchedThroughSolve) {
  // Unit-demand instance through the public P1 entry point stays exact.
  const model::Instance inst =
      sim::uniform_disk_instance(40, 1, 1.2, 11.0, 9);
  const model::Solution sol = single::solve_exact(inst);
  const model::Solution ref = single::solve_reference(
      sim::uniform_disk_instance(15, 1, 1.2, 11.0, 9));
  EXPECT_TRUE(model::is_feasible(inst, sol));
  // Capacity 11, unit demands: serve at most 11.
  EXPECT_LE(model::served_demand(inst, sol), 11.0 + 1e-9);
  (void)ref;
}

TEST(SingleUniform, EdgeCases) {
  EXPECT_DOUBLE_EQ(single::best_window_uniform({}, 1.0, 1.0, 5.0).value,
                   0.0);
  const std::vector<double> one = {1.0};
  // Capacity below the demand: nothing fits.
  EXPECT_DOUBLE_EQ(single::best_window_uniform(one, 2.0, 1.0, 1.0).value,
                   0.0);
  EXPECT_DOUBLE_EQ(single::best_window_uniform(one, 1.0, 1.0, 1.0).value,
                   1.0);
}

TEST(SingleExact, RotationInvariance) {
  // Rotating the whole instance must not change the optimal value.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Rng rng(seed + 777);
    model::InstanceBuilder b1;
    model::InstanceBuilder b2;
    const double offset = rng.uniform(0.0, geom::kTwoPi);
    for (int i = 0; i < 10; ++i) {
      const double theta = rng.uniform(0.0, geom::kTwoPi);
      const double r = rng.uniform(1.0, 9.0);
      const double d = static_cast<double>(rng.uniform_int(1, 8));
      b1.add_customer_polar(theta, r, d);
      b2.add_customer_polar(geom::normalize(theta + offset), r, d);
    }
    b1.add_antenna(1.1, 10.0, 14.0);
    b2.add_antenna(1.1, 10.0, 14.0);
    const double v1 =
        model::served_demand(b1.build(), single::solve_exact(b1.build()));
    const double v2 =
        model::served_demand(b2.build(), single::solve_exact(b2.build()));
    EXPECT_NEAR(v1, v2, 1e-9) << "seed " << seed;
  }
}

// Parameterized oracle sweep: every oracle keeps the composed guarantee on
// the full P1 pipeline.
//
// gtest names each case by dumping the bytes of its parameter, so the struct
// must have no padding: with a one-byte kind, the uninitialised padding after
// it made the test names change from run to run. The kind is stored widened
// to eight bytes, which on little-endian targets dumps as the kind byte
// followed by zeros.
struct OracleCase {
  std::uint64_t kind;  // a ks::OracleKind
  double eps;
  double floor;
};
static_assert(sizeof(OracleCase) == 3 * sizeof(double),
              "OracleCase must have no padding bytes");

OracleCase oracle_case(ks::OracleKind kind, double eps, double floor) {
  return {static_cast<std::uint64_t>(kind), eps, floor};
}

class SingleOracleProperty : public ::testing::TestWithParam<OracleCase> {};

TEST_P(SingleOracleProperty, ComposedGuaranteeHolds) {
  const OracleCase oc = GetParam();
  const ks::Oracle oracle(static_cast<ks::OracleKind>(oc.kind), oc.eps);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const model::Instance inst =
        random_p1(seed + 1000, 4 + seed % 8, 1.4, 16.0);
    const double exact = model::served_demand(inst, single::solve_exact(inst));
    single::Config c;
    c.oracle = oracle;
    const model::Solution sol = single::solve(inst, c);
    EXPECT_TRUE(model::is_feasible(inst, sol));
    EXPECT_GE(model::served_demand(inst, sol) + 1e-9, oc.floor * exact)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Oracles, SingleOracleProperty,
    ::testing::Values(oracle_case(ks::OracleKind::kExactAuto, 0.0, 1.0),
                      oracle_case(ks::OracleKind::kExactBB, 0.0, 1.0),
                      oracle_case(ks::OracleKind::kGreedy, 0.0, 0.5),
                      oracle_case(ks::OracleKind::kFptas, 0.2, 0.8),
                      oracle_case(ks::OracleKind::kFptas, 0.05, 0.95)));
