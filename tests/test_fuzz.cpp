// Differential fuzzing: independent implementations must agree (exact vs
// exact) or be consistently ordered (heuristic <= exact <= bound) across
// hundreds of randomized instances. These tests are the broad safety net
// under the targeted unit suites; each TEST_P instantiation sweeps a
// different instance shape.

#include <gtest/gtest.h>

#include <array>

#include "src/sectorpack.hpp"

using namespace sectorpack;
namespace ks = knapsack;

namespace {

// gtest names each case by dumping its parameter's bytes, so the bytes
// after the bools are spelled out as zeros rather than left as padding.
struct FuzzShape {
  std::size_t n;
  std::size_t k;
  double rho;
  double capacity_fraction;
  bool integral_demands;
  bool weighted;
  bool annular;
  std::array<char, 5> zeros{};
};
static_assert(sizeof(FuzzShape) == 4 * sizeof(double) + 8,
              "FuzzShape must have no padding bytes");

model::Instance make_fuzz_instance(const FuzzShape& shape,
                                   std::uint64_t seed) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  double total_demand = 0.0;
  for (std::size_t i = 0; i < shape.n; ++i) {
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    const double r = rng.uniform(0.5, 10.0);
    const double demand =
        shape.integral_demands
            ? static_cast<double>(rng.uniform_int(1, 9))
            : rng.uniform(0.5, 9.0);
    total_demand += demand;
    if (shape.weighted) {
      b.add_weighted_customer_polar(
          theta, r, demand, static_cast<double>(rng.uniform_int(0, 25)));
    } else {
      b.add_customer_polar(theta, r, demand);
    }
  }
  for (std::size_t j = 0; j < shape.k; ++j) {
    const double range = rng.uniform(6.0, 11.0);
    const double min_range =
        shape.annular && rng.uniform01() < 0.5 ? rng.uniform(0.5, 3.0) : 0.0;
    const double cap = std::max(
        1.0, total_demand * shape.capacity_fraction /
                 static_cast<double>(shape.k) * rng.uniform(0.6, 1.4));
    const double rho =
        std::min(shape.rho * rng.uniform(0.7, 1.3), geom::kTwoPi);
    b.add_antenna(rho, range, cap, min_range);
  }
  return b.build();
}

}  // namespace

// ---------------------------------------------------------------------------
// Knapsack: four independent exact algorithms must agree exactly.

TEST(FuzzKnapsack, FourExactImplementationsAgree) {
  sim::Rng rng(9001);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(15);
    std::vector<ks::Item> items(n);
    const bool integral = trial % 2 == 0;
    for (auto& it : items) {
      it.weight = integral ? static_cast<double>(rng.uniform_int(1, 25))
                           : rng.uniform(0.2, 25.0);
      it.value = trial % 3 == 0 ? it.weight
                                : static_cast<double>(rng.uniform_int(1, 40));
    }
    double total = 0.0;
    for (const auto& it : items) total += it.weight;
    const double cap = total * rng.uniform(0.2, 0.9);

    const double bf = ks::solve_brute_force(items, cap).value;
    const double bb = ks::solve_bb(items, cap).value;
    const double mim = ks::solve_mim(items, cap).value;
    EXPECT_NEAR(bb, bf, 1e-9) << trial;
    EXPECT_NEAR(mim, bf, 1e-9) << trial;
    if (integral) {
      const double dp =
          ks::solve_exact_dp(items, std::floor(cap)).value;
      const double bf2 = ks::solve_brute_force(items, std::floor(cap)).value;
      EXPECT_NEAR(dp, bf2, 1e-9) << trial;
    }
  }
}

TEST(FuzzKnapsack, ApproximationChainOrdered) {
  sim::Rng rng(9002);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(18);
    std::vector<ks::Item> items(n);
    for (auto& it : items) {
      it.weight = rng.uniform(0.2, 25.0);
      it.value = rng.uniform(0.2, 40.0);
    }
    const double cap = rng.uniform(5.0, 120.0);
    const double exact = ks::solve_mim(items, cap).value;
    const double f05 = ks::solve_fptas(items, cap, 0.05).value;
    const double f20 = ks::solve_fptas(items, cap, 0.20).value;
    const double greedy = ks::solve_greedy(items, cap).value;
    const double frac = ks::fractional_upper_bound(items, cap);
    EXPECT_LE(greedy, exact + 1e-9) << trial;
    EXPECT_LE(f05, exact + 1e-9) << trial;
    EXPECT_LE(f20, exact + 1e-9) << trial;
    EXPECT_LE(exact, frac + 1e-9) << trial;
    EXPECT_GE(greedy + 1e-9, 0.5 * exact) << trial;
    EXPECT_GE(f05 + 1e-9, 0.95 * exact) << trial;
    EXPECT_GE(f20 + 1e-9, 0.80 * exact) << trial;
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline fuzz across instance shapes.

class PipelineFuzz : public ::testing::TestWithParam<FuzzShape> {};

TEST_P(PipelineFuzz, FeasibilityOrderingAndBounds) {
  const FuzzShape shape = GetParam();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const model::Instance inst = make_fuzz_instance(shape, 31 * seed + 7);

    const model::Solution greedy = sectors::solve_greedy(inst);
    const model::Solution ls = sectors::solve_local_search(inst);
    const model::Solution uniform =
        sectors::solve_uniform_orientations(inst);

    for (const auto* entry : {&greedy, &ls, &uniform}) {
      const auto report = model::validate(inst, *entry);
      ASSERT_TRUE(report.ok)
          << "seed " << seed << ": "
          << (report.errors.empty() ? "" : report.errors[0]);
    }

    const double v_greedy = model::served_value(inst, greedy);
    const double v_ls = model::served_value(inst, ls);
    EXPECT_GE(v_ls + 1e-9, v_greedy) << seed;

    const double bound = bounds::orientation_free_bound(inst);
    EXPECT_LE(v_ls, bound + 1e-6) << seed;
    EXPECT_LE(model::served_value(inst, uniform), bound + 1e-6) << seed;

    if (!inst.is_value_weighted()) {
      const double fw = bounds::flow_window_bound(inst);
      EXPECT_LE(v_ls, fw + 1e-6) << seed;
      EXPECT_LE(fw, bound + 1e-6) << seed;  // flow bound only tightens
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineFuzz,
    ::testing::Values(
        FuzzShape{1, 1, 1.0, 0.5, true, false, false},
        FuzzShape{10, 1, 0.8, 0.4, true, false, false},
        FuzzShape{10, 1, 0.8, 0.4, false, true, false},
        FuzzShape{25, 3, 1.5, 0.3, true, false, false},
        FuzzShape{25, 3, 1.5, 0.3, false, false, true},
        FuzzShape{25, 3, 1.5, 1.5, true, true, true},
        FuzzShape{60, 5, 0.6, 0.5, true, false, false},
        FuzzShape{60, 5, 2.8, 0.2, false, true, true},
        FuzzShape{120, 2, geom::kTwoPi, 0.5, true, false, false}));

// Exact-vs-exact on tiny instances across all the same shapes.
class ExactFuzz : public ::testing::TestWithParam<FuzzShape> {};

TEST_P(ExactFuzz, SectorsExactDominatesAndIsFeasible) {
  FuzzShape shape = GetParam();
  shape.n = std::min<std::size_t>(shape.n, 7);
  shape.k = std::min<std::size_t>(shape.k, 2);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const model::Instance inst = make_fuzz_instance(shape, 91 * seed + 3);
    const model::Solution exact = sectors::solve_exact(inst);
    ASSERT_TRUE(model::is_feasible(inst, exact)) << seed;
    const double ve = model::served_value(inst, exact);
    EXPECT_GE(ve + 1e-9,
              model::served_value(inst, sectors::solve_greedy(inst)))
        << seed;
    EXPECT_GE(ve + 1e-9,
              model::served_value(inst, sectors::solve_local_search(inst)))
        << seed;
    EXPECT_LE(ve, bounds::orientation_free_bound(inst) + 1e-6) << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExactFuzz,
    ::testing::Values(FuzzShape{7, 2, 1.0, 0.5, true, false, false},
                      FuzzShape{7, 2, 1.0, 0.5, false, true, false},
                      FuzzShape{7, 2, 2.0, 0.3, true, false, true},
                      FuzzShape{7, 2, 0.5, 1.2, false, true, true}));

// Serialization fuzz: random instances roundtrip bit-exactly.
TEST(FuzzIO, RandomInstancesRoundtrip) {
  sim::Rng rng(9003);
  for (int trial = 0; trial < 40; ++trial) {
    const FuzzShape shape{5 + rng.uniform_int(40),
                          1 + rng.uniform_int(4),
                          rng.uniform(0.3, geom::kTwoPi),
                          rng.uniform(0.2, 1.5),
                          trial % 2 == 0,
                          trial % 3 == 0,
                          trial % 5 == 0};
    const model::Instance inst =
        make_fuzz_instance(shape, 1000 + static_cast<std::uint64_t>(trial));
    const model::Instance back =
        model::instance_from_string(model::to_string(inst));
    ASSERT_EQ(back.num_customers(), inst.num_customers());
    ASSERT_EQ(back.num_antennas(), inst.num_antennas());
    for (std::size_t i = 0; i < inst.num_customers(); ++i) {
      EXPECT_EQ(back.theta(i), inst.theta(i));
      EXPECT_EQ(back.radius(i), inst.radius(i));
      EXPECT_EQ(back.demand(i), inst.demand(i));
      EXPECT_EQ(back.value(i), inst.value(i));
    }
    for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
      EXPECT_EQ(back.antenna(j).rho, inst.antenna(j).rho);
      EXPECT_EQ(back.antenna(j).min_range, inst.antenna(j).min_range);
    }
  }
}

// Mutation fuzz over the text formats: random byte flips, truncations and
// splices of valid files must either parse or throw a *clean* exception --
// std::runtime_error from the parser, or std::invalid_argument from model
// validation. Anything else (std::length_error or std::bad_alloc from a
// forged count reaching vector::reserve, a crash, a hang on gigabytes of
// allocation) escapes the catch clauses and fails the test.
namespace {

template <typename Parse>
void check_clean_failure(const std::string& text, Parse parse,
                         const char* context) {
  try {
    parse(text);
  } catch (const std::runtime_error&) {
  } catch (const std::invalid_argument&) {
  }
  // Reaching here (parsed fine or threw one of the clean types) is a pass;
  // the ADD_FAILURE path is any other exception propagating out.
  (void)context;
}

std::string mutate(const std::string& text, sim::Rng& rng) {
  std::string out = text;
  if (out.empty()) return out;
  switch (rng.uniform_int(std::uint64_t{4})) {
    case 0: {  // flip one byte to a random printable character
      const auto pos = static_cast<std::size_t>(rng.uniform_int(out.size()));
      out[pos] = static_cast<char>(
          '!' + static_cast<char>(rng.uniform_int(std::uint64_t{94})));
      break;
    }
    case 1: {  // truncate
      out.resize(static_cast<std::size_t>(rng.uniform_int(out.size() + 1)));
      break;
    }
    case 2: {  // duplicate a random chunk in place
      const auto a = static_cast<std::size_t>(rng.uniform_int(out.size()));
      const auto len = std::min<std::size_t>(
          1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{20})),
          out.size() - a);
      out.insert(a, out.substr(a, len));
      break;
    }
    default: {  // splice extra digits into the file (inflates counts)
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(out.size() + 1));
      out.insert(pos, std::to_string(rng.uniform_int(std::int64_t{1},
                                                     std::int64_t{999999999})));
      break;
    }
  }
  return out;
}

}  // namespace

TEST(FuzzIO, MutatedInstancesFailCleanlyOrParse) {
  sim::Rng rng(9005);
  const FuzzShape shape{15, 2, 1.2, 0.4, true, false, false};
  for (int trial = 0; trial < 400; ++trial) {
    const model::Instance inst = make_fuzz_instance(
        shape, 3000 + static_cast<std::uint64_t>(trial % 5));
    const std::string mutated = mutate(model::to_string(inst), rng);
    check_clean_failure(
        mutated,
        [](const std::string& t) { (void)model::instance_from_string(t); },
        "instance");
  }
}

TEST(FuzzIO, MutatedSolutionsFailCleanlyOrParse) {
  sim::Rng rng(9006);
  const FuzzShape shape{15, 2, 1.2, 0.4, true, false, false};
  const model::Instance inst = make_fuzz_instance(shape, 4000);
  const std::string base = model::to_string(sectors::solve_greedy(inst));
  for (int trial = 0; trial < 400; ++trial) {
    const std::string mutated = mutate(base, rng);
    check_clean_failure(
        mutated,
        [](const std::string& t) { (void)model::solution_from_string(t); },
        "solution");
  }
}

// Solutions survive serialization with objective intact.
TEST(FuzzIO, SolutionsRoundtripWithObjective) {
  sim::Rng rng(9004);
  for (int trial = 0; trial < 20; ++trial) {
    const FuzzShape shape{20, 3, 1.2, 0.4, true, trial % 2 == 0, false};
    const model::Instance inst =
        make_fuzz_instance(shape, 2000 + static_cast<std::uint64_t>(trial));
    const model::Solution sol = sectors::solve_greedy(inst);
    const model::Solution back =
        model::solution_from_string(model::to_string(sol));
    EXPECT_EQ(back.assign, sol.assign);
    EXPECT_DOUBLE_EQ(model::served_value(inst, back),
                     model::served_value(inst, sol));
    EXPECT_TRUE(model::is_feasible(inst, back));
  }
}
