// Robustness and failure injection: degenerate geometry, extreme scales,
// adversarially duplicated inputs, and malformed data must either work or
// fail loudly -- never produce an infeasible "solution" or crash.

#include <gtest/gtest.h>

#include "src/sectorpack.hpp"

using namespace sectorpack;

TEST(Robustness, ManyCustomersAtExactlyOneAngle) {
  model::InstanceBuilder b;
  for (int i = 0; i < 200; ++i) {
    b.add_customer_polar(1.234, 5.0, 1.0);
  }
  b.add_identical_antennas(2, 0.1, 10.0, 50.0);
  const model::Instance inst = b.build();
  const model::Solution sol = sectors::solve_local_search(inst);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  // Both antennas can stack on the same angle: 100 served.
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 100.0);
}

TEST(Robustness, AntipodalBoundaryCustomers) {
  // Customers exactly at the two ends of a pi-wide sector.
  model::InstanceBuilder b;
  b.add_customer_polar(0.0, 5.0, 1.0);
  b.add_customer_polar(geom::kPi, 5.0, 1.0);
  b.add_antenna(geom::kPi, 10.0, 10.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 2.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(Robustness, TinyAndHugeCoordinates) {
  model::InstanceBuilder b;
  b.add_customer(1e-12, 1e-12, 1.0);  // essentially at the base station
  b.add_customer(1e6, 1e6, 2.0);      // very far away
  b.add_antenna(geom::kTwoPi, 2e6, 10.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 3.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(Robustness, ExtremeDemandScales) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 1e-9);
  b.add_customer_polar(0.2, 5.0, 1e9);
  b.add_antenna(1.0, 10.0, 1e9 + 1.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  EXPECT_NEAR(model::served_demand(inst, sol), 1e9 + 1e-9, 1.0);
}

TEST(Robustness, NonFinitePositionsRejectedAtConstruction) {
  model::InstanceBuilder b;
  b.add_customer(std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0);
  b.add_antenna(1.0, 10.0, 5.0);
  // NaN position -> NaN demanded radius; solvers must never see it.
  // The Instance constructor validates demand, not position; to_polar on
  // NaN gives NaN theta. Verify the validator catches the situation
  // instead of silently serving.
  // (Design decision: positions are caller responsibility; demand/value
  // and spec fields are validated. This test documents the behaviour.)
  const model::Instance inst = b.build();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.assign[0] = 0;
  EXPECT_FALSE(model::is_feasible(inst, sol));  // NaN fails containment
}

TEST(Robustness, ZeroWidthEffectivelyPointSector) {
  // rho must be > 0, but an extremely narrow beam is legal.
  model::InstanceBuilder b;
  b.add_customer_polar(1.0, 5.0, 2.0);
  b.add_customer_polar(1.0 + 1e-3, 5.0, 3.0);
  b.add_antenna(1e-6, 10.0, 10.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  // Only one of the two (they are 1e-3 apart, beam is 1e-6).
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 3.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(Robustness, CapacityExactlyZero) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 1.0);
  b.add_identical_antennas(3, 1.0, 10.0, 0.0);
  const model::Instance inst = b.build();
  for (const model::Solution& sol :
       {sectors::solve_greedy(inst), sectors::solve_local_search(inst),
        sectors::solve_exact(inst)}) {
    EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 0.0);
    EXPECT_TRUE(model::is_feasible(inst, sol));
  }
}

TEST(Robustness, DemandExactlyAtCapacity) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 7.0);
  b.add_antenna(1.0, 10.0, 7.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 7.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(Robustness, ManyIdenticalAntennasOnTinyInstance) {
  model::InstanceBuilder b;
  b.add_customer_polar(0.1, 5.0, 1.0);
  b.add_identical_antennas(50, 1.0, 10.0, 5.0);
  const model::Instance inst = b.build();
  const model::Solution sol = sectors::solve_greedy(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 1.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(Robustness, FullCircleWrapDoesNotDoubleServe) {
  // All customers visible to a full-circle antenna; the sweep's doubled
  // array must not present anyone twice to the knapsack.
  model::InstanceBuilder b;
  for (int i = 0; i < 20; ++i) {
    b.add_customer_polar(geom::kTwoPi * i / 20.0, 5.0, 1.0);
  }
  b.add_antenna(geom::kTwoPi, 10.0, 100.0);
  const model::Instance inst = b.build();
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 20.0);
  // Every customer assigned exactly once by construction of assign[].
  EXPECT_EQ(model::served_count(sol), 20u);
}

TEST(Robustness, ValidatorRejectsDoubleBookkeeping) {
  // A hand-built "solution" overloading via duplicate-heavy assignment.
  model::InstanceBuilder b;
  for (int i = 0; i < 10; ++i) b.add_customer_polar(0.1, 5.0, 2.0);
  b.add_antenna(1.0, 10.0, 10.0);
  const model::Instance inst = b.build();
  model::Solution sol = model::Solution::empty_for(inst);
  for (int i = 0; i < 10; ++i) sol.assign[static_cast<std::size_t>(i)] = 0;
  EXPECT_FALSE(model::is_feasible(inst, sol));  // 20 > 10
}

TEST(Robustness, SolversSurviveAllCustomersOutOfRange) {
  model::InstanceBuilder b;
  for (int i = 0; i < 10; ++i) {
    b.add_customer_polar(0.1 * i, 100.0, 1.0);
  }
  b.add_identical_antennas(3, 1.0, 10.0, 5.0);
  const model::Instance inst = b.build();
  for (const model::Solution& sol :
       {sectors::solve_greedy(inst), sectors::solve_local_search(inst),
        sectors::solve_uniform_orientations(inst),
        sectors::solve_annealing(inst)}) {
    EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 0.0);
    EXPECT_TRUE(model::is_feasible(inst, sol));
  }
}

TEST(Robustness, IoRejectsGarbageGracefully) {
  for (const char* text :
       {"", "garbage", "sectorpack-instance v3\n",
        "sectorpack-instance v1\ncustomers x\n",
        "sectorpack-instance v1\ncustomers 1\n1 2 notanumber\n",
        "sectorpack-instance v1\ncustomers 1\n1 2 3\nantennas 1\n0.5\n"}) {
    EXPECT_THROW((void)model::instance_from_string(text),
                 std::runtime_error)
        << "text: " << text;
  }
}

TEST(Robustness, IoRejectsHostileCountsWithoutAllocating) {
  // Forged headers whose counts would previously reach vector::reserve()
  // and die as std::length_error / std::bad_alloc (or allocate gigabytes
  // before hitting EOF). All of them must be clean parse errors now.
  for (const char* text :
       {"sectorpack-instance v1\ncustomers 9223372036854775807\n",
        "sectorpack-instance v1\ncustomers 4611686018427387904\n",
        "sectorpack-instance v1\ncustomers 100000001\n",
        "sectorpack-instance v1\ncustomers 0\nantennas 9223372036854775807\n",
        "sectorpack-solution v1\nalphas 9223372036854775807\n",
        "sectorpack-solution v1\nalphas 0\nassign 9223372036854775807\n"}) {
    const bool is_solution =
        std::string(text).rfind("sectorpack-solution", 0) == 0;
    if (is_solution) {
      EXPECT_THROW((void)model::solution_from_string(text),
                   std::runtime_error)
          << "text: " << text;
    } else {
      EXPECT_THROW((void)model::instance_from_string(text),
                   std::runtime_error)
          << "text: " << text;
    }
  }
  // Counts past the long long range fail the extraction itself.
  EXPECT_THROW((void)model::instance_from_string(
                   "sectorpack-instance v1\ncustomers "
                   "99999999999999999999999999\n"),
               std::runtime_error);
  // Negative counts were never valid; make sure they still are not.
  EXPECT_THROW((void)model::instance_from_string(
                   "sectorpack-instance v1\ncustomers -1\n"),
               std::runtime_error);
  // The error message names the offending line, not just "bad count".
  try {
    (void)model::instance_from_string(
        "sectorpack-instance v1\ncustomers 9223372036854775807\n");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("9223372036854775807"),
              std::string::npos)
        << e.what();
  }
}

TEST(Robustness, IoRejectsTrailingTokens) {
  // `1 2 3 junk` is not a 3-column customer, and a stray numeric column
  // must not silently change meaning between the v1 and v2 formats.
  for (const char* text :
       {"sectorpack-instance v1\ncustomers 1\n1 2 3 junk\nantennas 0\n",
        "sectorpack-instance v1\ncustomers 1\n1 2 3 4\nantennas 0\n",
        "sectorpack-instance v1\ncustomers 1 extra\n1 2 3\nantennas 0\n",
        "sectorpack-instance v1\ncustomers 1\n1 2 3\nantennas 1\n"
        "0.5 10 5 oops\n",
        "sectorpack-instance v2\ncustomers 1\n1 2 3 4 5\nantennas 0\n"}) {
    EXPECT_THROW((void)model::instance_from_string(text),
                 std::runtime_error)
        << "text: " << text;
  }
  for (const char* text :
       {"sectorpack-solution v1\nalphas 1\n0.5 junk\nassign 0\n",
        "sectorpack-solution v1\nalphas 0\nassign 1\n0 1\n",
        "sectorpack-solution v1\nalphas 0 0\nassign 0\n",
        "sectorpack-solution v1\nstatus complete extra\nalphas 0\n"
        "assign 0\n"}) {
    EXPECT_THROW((void)model::solution_from_string(text),
                 std::runtime_error)
        << "text: " << text;
  }
  // Comments after the data are still fine -- only real tokens offend.
  const model::Instance ok = model::instance_from_string(
      "sectorpack-instance v1\ncustomers 1\n1 2 3  # a comment\n"
      "antennas 1\n0.5 10 5\n");
  EXPECT_EQ(ok.num_customers(), 1u);
}

TEST(Robustness, IoRejectsNonFiniteNumericColumns) {
  // The readers take no "nan"/"inf" spelling (from_chars would; operator>>
  // never did), and out-of-range literals like 3e999999 fail; both must
  // surface as parse errors rather than NaN/inf smuggled into the model (or
  // a crash).
  for (const char* text :
       {"sectorpack-instance v1\ncustomers 1\nnan 2 3\nantennas 0\n",
        "sectorpack-instance v1\ncustomers 1\n1 inf 3\nantennas 0\n",
        "sectorpack-instance v1\ncustomers 1\n1 2 3e999999\nantennas 0\n",
        "sectorpack-solution v1\nalphas 1\nnan\nassign 0\n"}) {
    const bool is_solution =
        std::string(text).rfind("sectorpack-solution", 0) == 0;
    if (is_solution) {
      EXPECT_THROW((void)model::solution_from_string(text),
                   std::runtime_error)
          << "text: " << text;
    } else {
      EXPECT_THROW((void)model::instance_from_string(text),
                   std::runtime_error)
          << "text: " << text;
    }
  }
}

TEST(Robustness, IoRejectsTruncatedV2Lines) {
  // v2 promises a value column per customer and a min_range per antenna;
  // a v2 file with v1-shaped lines is corrupt, not "implicitly defaulted".
  for (const char* text :
       {"sectorpack-instance v2\ncustomers 1\n1 2 3\nantennas 0\n",
        "sectorpack-instance v2\ncustomers 0\nantennas 1\n0.5 10 5\n",
        "sectorpack-instance v2\ncustomers 2\n1 2 3 4\n1 2 3\nantennas 0\n"}) {
    EXPECT_THROW((void)model::instance_from_string(text),
                 std::runtime_error)
        << "text: " << text;
  }
}

TEST(Robustness, LargeUnitInstanceEndToEnd) {
  // 5000 customers through the uniform fast path; must stay snappy and
  // feasible.
  const model::Instance inst =
      sim::uniform_disk_instance(5000, 1, 1.0, 700.0, 3);
  const model::Solution sol = single::solve_exact(inst);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  EXPECT_LE(model::served_demand(inst, sol), 700.0 + 1e-9);
  EXPECT_GT(model::served_demand(inst, sol), 500.0);  // rho/2pi * 5000 ~ 795
}

TEST(Robustness, SweepNearDuplicateAnglesWithinEpsilon) {
  // Angles within kAngleEps of each other share candidate windows; the
  // solver must remain exact relative to the reference.
  model::InstanceBuilder b;
  b.add_customer_polar(1.0, 5.0, 2.0);
  b.add_customer_polar(1.0 + 1e-13, 5.0, 3.0);
  b.add_customer_polar(1.0 - 1e-13, 5.0, 4.0);
  b.add_antenna(0.5, 10.0, 6.0);
  const model::Instance inst = b.build();
  const model::Solution fast = single::solve_exact(inst);
  const model::Solution ref = single::solve_reference(inst);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, fast),
                   model::served_demand(inst, ref));
}
