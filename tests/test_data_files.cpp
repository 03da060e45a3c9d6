// The committed sample instances in data/ must stay loadable and solvable:
// they are the fixtures the README and CLI docs point users at.

#include <gtest/gtest.h>

#include "src/sectorpack.hpp"

using namespace sectorpack;

namespace {

model::Instance load(const std::string& name) {
  return model::read_instance_file(std::string(SECTORPACK_DATA_DIR) + "/" +
                                   name);
}

}  // namespace

TEST(DataFiles, SmallCityLoadsAndSolves) {
  const model::Instance inst = load("small_city.inst");
  EXPECT_EQ(inst.num_customers(), 40u);
  EXPECT_EQ(inst.num_antennas(), 3u);
  EXPECT_FALSE(inst.is_value_weighted());
  const model::Solution sol = sectors::solve_local_search(inst);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  EXPECT_GT(model::served_demand(inst, sol), 0.0);
}

TEST(DataFiles, RingRoadLoadsAndSolves) {
  const model::Instance inst = load("ring_road.inst");
  EXPECT_EQ(inst.num_customers(), 25u);
  const model::Solution sol = sectors::solve_greedy(inst);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  EXPECT_LE(model::served_demand(inst, sol),
            bounds::flow_window_bound(inst) + 1e-6);
}

TEST(DataFiles, MixedFleetExercisesExtendedFormat) {
  const model::Instance inst = load("mixed_fleet.inst");
  EXPECT_EQ(inst.num_customers(), 8u);
  EXPECT_EQ(inst.num_antennas(), 3u);
  EXPECT_TRUE(inst.is_value_weighted());
  EXPECT_TRUE(inst.has_annular_antennas());
  EXPECT_DOUBLE_EQ(inst.antenna(1).min_range, 8.0);

  const model::Solution sol = sectors::solve_local_search(inst);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  const double exact = model::served_value(inst, sectors::solve_exact(inst));
  EXPECT_LE(model::served_value(inst, sol), exact + 1e-9);
  EXPECT_GE(bounds::orientation_free_bound(inst) + 1e-6, exact);
}

TEST(DataFiles, RoundtripStability) {
  for (const char* name :
       {"small_city.inst", "ring_road.inst", "mixed_fleet.inst"}) {
    const model::Instance inst = load(name);
    const model::Instance back =
        model::instance_from_string(model::to_string(inst));
    ASSERT_EQ(back.num_customers(), inst.num_customers()) << name;
    for (std::size_t i = 0; i < inst.num_customers(); ++i) {
      EXPECT_EQ(back.theta(i), inst.theta(i)) << name;
      EXPECT_EQ(back.value(i), inst.value(i)) << name;
    }
  }
}
