#include "src/sectors/sectors.hpp"

#include <gtest/gtest.h>

#include <array>

#include "src/model/validate.hpp"
#include "src/sim/adversarial.hpp"
#include "src/sim/generators.hpp"

namespace sectors = sectorpack::sectors;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;

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
