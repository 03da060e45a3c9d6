#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/model/instance.hpp"
#include "src/model/solution.hpp"
#include "src/model/validate.hpp"
#include "src/sim/rng.hpp"

namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;

namespace {

// The flat loop the band table replaced: the reference every band is
// checked against.
std::vector<std::size_t> flat_band(const model::Instance& inst,
                                   std::size_t j) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    if (inst.in_range(i, j)) out.push_back(i);
  }
  return out;
}

void expect_bands_are_flat(const model::Instance& inst,
                           const std::string& where) {
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    EXPECT_TRUE(std::ranges::equal(inst.band(j), flat_band(inst, j)))
        << where << ", antenna " << j;
  }
}

// Every band of a mutated instance equals the band of one freshly
// constructed from its records, and the flat loop's.
void expect_bands_are_fresh(const model::Instance& inst,
                            const std::string& where) {
  const model::Instance fresh(
      std::vector<model::Customer>(inst.customers().begin(),
                                   inst.customers().end()),
      std::vector<model::AntennaSpec>(inst.antennas().begin(),
                                      inst.antennas().end()));
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    EXPECT_TRUE(std::ranges::equal(inst.band(j), fresh.band(j)))
        << where << ", antenna " << j;
  }
  expect_bands_are_flat(inst, where);
}

// Annular, overlapping and identical specs over seeded customers, with
// some at the origin and some exactly on, or one ulp outside, each band's
// stretched edges. A customer at (r, 0) has radius exactly r.
model::Instance banded_instance(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<model::AntennaSpec> specs = {
      {1.0, 10.0, 5.0, 0.0},          // plain sector
      {0.5, 20.0, 5.0, 8.0},          // annular, overlaps the first
      {0.7, 10.0, 9.0, 0.0},          // the first band, other rho/capacity
      {0.5, 20.0, 5.0, 8.0},          // identical to the second
      {2.0, 35.0, 7.0, 19.0},         // annular, overlaps the second
      {geom::kTwoPi, 1e6, 3.0, 0.0},  // wider than all the others
  };
  for (int extra = 0; extra < 3; ++extra) {
    const double range = rng.uniform(5.0, 40.0);
    specs.push_back({rng.uniform(0.2, geom::kTwoPi), range, 4.0,
                     extra == 0 ? 0.0 : rng.uniform(0.0, range)});
  }
  std::vector<model::Customer> customers;
  for (int i = 0; i < 400; ++i) {
    const double r = rng.uniform_int(0, 9) == 0 ? 0.0 : rng.uniform(0.0, 45.0);
    customers.push_back({geom::from_polar(rng.uniform(0.0, geom::kTwoPi), r),
                         static_cast<double>(rng.uniform_int(1, 5))});
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const model::AntennaSpec& a : specs) {
    const double hi = a.range * (1.0 + geom::kRadiusEps);
    const double lo = a.min_range * (1.0 - geom::kRadiusEps);
    for (const double r : {a.range, hi, std::nextafter(hi, kInf),
                           std::nextafter(hi, 0.0), a.min_range, lo,
                           std::nextafter(lo, 0.0), std::nextafter(lo, kInf)}) {
      customers.push_back({{r, 0.0}, 1.0});
    }
  }
  customers.push_back({{0.0, 0.0}, 2.0});
  return {customers, specs};
}

model::Instance tiny_instance() {
  return model::InstanceBuilder{}
      .add_customer_polar(0.1, 5.0, 3.0)
      .add_customer_polar(0.2, 8.0, 4.0)
      .add_customer_polar(geom::kPi, 5.0, 2.0)
      .add_antenna(geom::kPi / 2.0, 10.0, 6.0)
      .build();
}

}  // namespace

TEST(Instance, BasicAccessors) {
  const model::Instance inst = tiny_instance();
  EXPECT_EQ(inst.num_customers(), 3u);
  EXPECT_EQ(inst.num_antennas(), 1u);
  EXPECT_DOUBLE_EQ(inst.total_demand(), 9.0);
  EXPECT_DOUBLE_EQ(inst.total_capacity(), 6.0);
  EXPECT_NEAR(inst.theta(0), 0.1, 1e-12);
  EXPECT_NEAR(inst.radius(1), 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(inst.demand(2), 2.0);
}

TEST(Instance, InRange) {
  const model::Instance inst = tiny_instance();
  EXPECT_TRUE(inst.in_range(0, 0));
  EXPECT_TRUE(inst.in_range(1, 0));
  // Customer exactly at the range boundary counts as in range.
  const model::Instance edge = model::InstanceBuilder{}
                                   .add_customer_polar(0.0, 10.0, 1.0)
                                   .add_antenna(1.0, 10.0, 5.0)
                                   .build();
  EXPECT_TRUE(edge.in_range(0, 0));
}

TEST(Instance, RejectsBadCustomers) {
  EXPECT_THROW(model::InstanceBuilder{}
                   .add_customer(1.0, 0.0, 0.0)
                   .build(),
               std::invalid_argument);
  EXPECT_THROW(model::InstanceBuilder{}
                   .add_customer(1.0, 0.0, -2.0)
                   .build(),
               std::invalid_argument);
}

TEST(Instance, RejectsBadAntennas) {
  EXPECT_THROW(
      model::InstanceBuilder{}.add_antenna(0.0, 10.0, 5.0).build(),
      std::invalid_argument);
  EXPECT_THROW(
      model::InstanceBuilder{}.add_antenna(7.0, 10.0, 5.0).build(),
      std::invalid_argument);
  EXPECT_THROW(
      model::InstanceBuilder{}.add_antenna(1.0, -1.0, 5.0).build(),
      std::invalid_argument);
  EXPECT_THROW(
      model::InstanceBuilder{}.add_antenna(1.0, 10.0, -5.0).build(),
      std::invalid_argument);
}

TEST(Instance, IdenticalAntennasDetection) {
  model::InstanceBuilder b;
  b.add_customer(1.0, 0.0, 1.0);
  b.add_identical_antennas(3, 1.0, 10.0, 5.0);
  EXPECT_TRUE(b.build().antennas_identical());

  b.add_antenna(1.0, 10.0, 6.0);
  EXPECT_FALSE(b.build().antennas_identical());
}

TEST(Instance, AnglesOnlyDetection) {
  const model::Instance in_range = model::InstanceBuilder{}
                                       .add_customer_polar(1.0, 5.0, 1.0)
                                       .add_customer_polar(2.0, 9.0, 1.0)
                                       .add_antenna(1.0, 10.0, 5.0)
                                       .build();
  EXPECT_TRUE(in_range.is_angles_only());

  const model::Instance out = model::InstanceBuilder{}
                                  .add_customer_polar(1.0, 15.0, 1.0)
                                  .add_antenna(1.0, 10.0, 5.0)
                                  .build();
  EXPECT_FALSE(out.is_angles_only());
}

TEST(Solution, EmptyForShape) {
  const model::Instance inst = tiny_instance();
  const model::Solution sol = model::Solution::empty_for(inst);
  EXPECT_EQ(sol.alpha.size(), 1u);
  EXPECT_EQ(sol.assign.size(), 3u);
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 0.0);
  EXPECT_EQ(model::served_count(sol), 0u);
}

TEST(Solution, ServedDemandAndLoads) {
  const model::Instance inst = tiny_instance();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[0] = 0.0;
  sol.assign[0] = 0;
  sol.assign[1] = 0;
  EXPECT_DOUBLE_EQ(model::served_demand(inst, sol), 7.0);
  EXPECT_EQ(model::served_count(sol), 2u);
  const auto loads = model::antenna_loads(inst, sol);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_DOUBLE_EQ(loads[0], 7.0);
}

TEST(Validate, AcceptsFeasible) {
  const model::Instance inst = tiny_instance();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[0] = 0.0;  // sector [0, pi/2] radius 10 covers customers 0, 1
  sol.assign[0] = 0;
  sol.assign[1] = 0;  // load 7 > capacity 6? demand(0)=3, demand(1)=4 -> 7.
  // That overloads; assign only customer 1.
  sol.assign[0] = model::kUnserved;
  const auto report = model::validate(inst, sol);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(Validate, CatchesOverload) {
  const model::Instance inst = tiny_instance();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[0] = 0.0;
  sol.assign[0] = 0;
  sol.assign[1] = 0;  // 3 + 4 = 7 > 6
  const auto report = model::validate(inst, sol);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors[0].find("overloaded"), std::string::npos);
}

TEST(Validate, CatchesOutOfSector) {
  const model::Instance inst = tiny_instance();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[0] = 0.0;
  sol.assign[2] = 0;  // customer 2 is at angle pi, outside [0, pi/2]
  const auto report = model::validate(inst, sol);
  EXPECT_FALSE(report.ok);
}

TEST(Validate, CatchesOutOfRange) {
  const model::Instance inst = model::InstanceBuilder{}
                                   .add_customer_polar(0.1, 50.0, 1.0)
                                   .add_antenna(geom::kPi, 10.0, 5.0)
                                   .build();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.assign[0] = 0;  // angle fits, radius 50 > range 10
  EXPECT_FALSE(model::is_feasible(inst, sol));
}

TEST(Validate, CatchesShapeMismatch) {
  const model::Instance inst = tiny_instance();
  model::Solution sol;  // empty vectors
  EXPECT_FALSE(model::validate(inst, sol).ok);
}

TEST(Validate, CatchesBadAssignmentIndex) {
  const model::Instance inst = tiny_instance();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.assign[0] = 7;
  EXPECT_FALSE(model::validate(inst, sol).ok);
  sol.assign[0] = -3;
  EXPECT_FALSE(model::validate(inst, sol).ok);
}

TEST(Validate, CatchesNonFiniteAlpha) {
  const model::Instance inst = tiny_instance();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(model::validate(inst, sol).ok);
}

TEST(Validate, BoundaryCustomerAccepted) {
  // Customer exactly on the sector's trailing edge and exactly at range.
  const model::Instance inst = model::InstanceBuilder{}
                                   .add_customer_polar(0.5, 10.0, 1.0)
                                   .add_antenna(0.5, 10.0, 5.0)
                                   .build();
  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha[0] = 0.0;  // sector [0, 0.5]; customer at theta = 0.5
  sol.assign[0] = 0;
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

// ------------------------------------------------------------- mutators

TEST(InstanceMutators, MatchFreshConstructionBitwise) {
  model::Instance inst = model::InstanceBuilder{}
                             .add_customer_polar(0.1, 5.0, 3.0)
                             .add_customer_polar(0.2, 8.0, 4.0)
                             .add_customer_polar(2.5, 6.0, 2.0)
                             .add_antenna(1.0, 10.0, 6.0)
                             .build();

  const std::size_t added = inst.add_customer({geom::from_polar(1.3, 7.0), 5.0});
  EXPECT_EQ(added, 3u);
  inst.set_demand(1, 2.5);
  inst.remove_customer(0);
  const std::size_t aj = inst.add_antenna({0.5, 8.0, 4.0, 1.0});
  EXPECT_EQ(aj, 1u);

  // Rebuild from the surviving records: every derived array and aggregate
  // must be bit-identical (the serve byte-identity contract rests on the
  // mutators replaying the constructor's summation order exactly).
  const model::Instance fresh(
      {inst.customers().begin(), inst.customers().end()},
      {inst.antennas().begin(), inst.antennas().end()});
  ASSERT_EQ(fresh.num_customers(), inst.num_customers());
  ASSERT_EQ(fresh.num_antennas(), inst.num_antennas());
  for (std::size_t i = 0; i < inst.num_customers(); ++i) {
    EXPECT_EQ(fresh.theta(i), inst.theta(i));
    EXPECT_EQ(fresh.radius(i), inst.radius(i));
    EXPECT_EQ(fresh.demand(i), inst.demand(i));
    EXPECT_EQ(fresh.value(i), inst.value(i));
  }
  EXPECT_EQ(fresh.total_demand(), inst.total_demand());
  EXPECT_EQ(fresh.total_value(), inst.total_value());
  EXPECT_EQ(fresh.total_capacity(), inst.total_capacity());
  EXPECT_EQ(fresh.is_value_weighted(), inst.is_value_weighted());
  EXPECT_EQ(fresh.antennas_identical(), inst.antennas_identical());
}

TEST(InstanceMutators, StrongGuaranteeOnInvalidInput) {
  model::Instance inst = model::InstanceBuilder{}
                             .add_customer_polar(0.1, 5.0, 3.0)
                             .add_antenna(1.0, 10.0, 6.0)
                             .build();
  const double demand_before = inst.total_demand();

  EXPECT_THROW(inst.add_customer({{1.0, 0.0}, -1.0}), std::invalid_argument);
  EXPECT_THROW(inst.set_demand(0, 0.0), std::invalid_argument);
  EXPECT_THROW(inst.set_demand(5, 1.0), std::out_of_range);
  EXPECT_THROW(inst.remove_customer(5), std::out_of_range);
  EXPECT_THROW(inst.add_antenna({0.0, 10.0, 5.0}), std::invalid_argument);

  EXPECT_EQ(inst.num_customers(), 1u);
  EXPECT_EQ(inst.num_antennas(), 1u);
  EXPECT_EQ(inst.total_demand(), demand_before);
}

TEST(InstanceMutators, SetDemandFollowsValueResolution) {
  // A kValueIsDemand customer's value follows the new demand; an explicit
  // value stays, exactly as a fresh construction would resolve them.
  model::Instance inst = model::InstanceBuilder{}
                             .add_customer_polar(0.1, 5.0, 3.0)
                             .add_weighted_customer_polar(0.2, 6.0, 4.0, 9.0)
                             .add_antenna(1.0, 10.0, 6.0)
                             .build();
  EXPECT_TRUE(inst.is_value_weighted());
  inst.set_demand(0, 7.0);
  EXPECT_EQ(inst.value(0), 7.0);
  inst.set_demand(1, 9.0);  // demand now equals the explicit value...
  EXPECT_EQ(inst.value(1), 9.0);
  EXPECT_EQ(inst.demand(1), 9.0);
}

TEST(InstanceMutators, MutationAfterGridBuildStaysCoherent) {
  // Build the spatial index, then mutate: the grid must be dropped and the
  // in-band query must answer for the *current* customers, byte-identical
  // to a flat scan (the indexed and flat paths share one predicate).
  model::InstanceBuilder builder;
  for (int i = 0; i < 64; ++i) {
    builder.add_customer_polar(0.1 * i, 1.0 + 0.2 * (i % 40), 1.0);
  }
  builder.add_antenna(1.0, 5.0, 10.0);
  model::Instance inst = builder.build();

  (void)inst.polar_grid();  // force the O(n log n) build
  const std::size_t idx = inst.add_customer({geom::from_polar(0.5, 2.0), 1.0});
  inst.remove_customer(3);
  inst.set_demand(0, 2.0);
  EXPECT_EQ(idx, 64u);

  const std::vector<std::size_t> flat = flat_band(inst, 0);
  EXPECT_TRUE(std::ranges::equal(inst.band(0), flat));

  // Rebuilding the grid after the mutation must cover the new layout too:
  // force a build and ask it for antenna 0's sector at alpha 0.
  const sectorpack::geom::PolarGrid& grid = inst.polar_grid();
  EXPECT_EQ(grid.num_points(), inst.num_customers());
  const geom::Sector sector = inst.sector(0, 0.0);
  std::vector<std::size_t> again;
  grid.collect_sector(sector, again);
  std::vector<std::size_t> in_sector;
  for (const std::size_t i : flat) {
    if (sector.contains(geom::Polar{inst.theta(i), inst.radius(i)})) {
      in_sector.push_back(i);
    }
  }
  EXPECT_EQ(again, in_sector);
}

TEST(InstanceBands, MatchFlatInRangeLoop) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const model::Instance inst = banded_instance(seed);
    expect_bands_are_flat(inst, "seed " + std::to_string(seed));
  }
  // No antennas, and no customers.
  const model::Instance none({{{1.0, 0.0}, 1.0}}, {});
  EXPECT_TRUE(none.is_angles_only());
  const model::Instance empty({}, {{1.0, 5.0, 1.0, 0.0}});
  EXPECT_TRUE(empty.band(0).empty());
}

// The edge cases of a radial query: customers at the origin, bounds equal
// to a customer's radius, the narrowest band a spec allows (equal and
// inverted bounds are rejected at construction), a band holding everyone,
// a band holding no one, and an infinite radius, which no band holds.
TEST(InstanceBands, EdgeCasesMatchInRange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double narrow_lo = std::nextafter(7.0, 0.0);
  const model::Instance inst(
      {{{0.0, 0.0}, 1.0},
       {{7.0, 0.0}, 1.0},
       {{0.0, 7.0}, 1.0},
       {{narrow_lo, 0.0}, 1.0},
       {{kInf, 0.0}, 1.0},
       {{1.5e308, 1.5e308}, 1.0},  // hypot overflows to inf
       {{3.0, -4.0}, 1.0},
       {{0.0, 0.0}, 3.0}},
      {{1.0, 7.0, 1.0, 0.0},         // bounds at the radius of 1 and 2
       {1.0, 7.0, 1.0, narrow_lo},   // the narrowest band around 7
       {1.0, 1e308, 1.0, 0.0},       // everyone with a finite radius
       {1.0, 5.0, 1.0, 4.0},         // only (3, -4), on its upper bound
       {1.0, 6.5, 1.0, 5.5},         // no one
       {1.0, 4.0, 1.0, 1e-300}});    // excludes the origin
  EXPECT_TRUE(std::isinf(inst.radius(4)));
  EXPECT_TRUE(std::isinf(inst.radius(5)));
  expect_bands_are_flat(inst, "edge cases");
  using Band = std::vector<std::size_t>;
  EXPECT_TRUE(std::ranges::equal(inst.band(0), Band{0, 1, 2, 3, 6, 7}));
  EXPECT_TRUE(std::ranges::equal(inst.band(1), Band{1, 2, 3}));
  EXPECT_TRUE(std::ranges::equal(inst.band(2), Band{0, 1, 2, 3, 6, 7}));
  EXPECT_TRUE(std::ranges::equal(inst.band(3), Band{6}));
  EXPECT_TRUE(inst.band(4).empty());
  EXPECT_TRUE(inst.band(5).empty());
  EXPECT_FALSE(inst.is_angles_only());
  EXPECT_THROW((void)model::Instance({}, {{1.0, 7.0, 1.0, 7.0}}),
               std::invalid_argument);
  EXPECT_THROW((void)model::Instance({}, {{1.0, 7.0, 1.0, 8.0}}),
               std::invalid_argument);
}

TEST(InstanceBands, EqualBandsShareOneList) {
  const model::Instance inst = banded_instance(5);
  for (std::size_t a = 0; a < inst.num_antennas(); ++a) {
    for (std::size_t b = a + 1; b < inst.num_antennas(); ++b) {
      if (inst.band(a).empty() || inst.band(b).empty()) continue;
      const bool same = inst.antenna(a).range == inst.antenna(b).range &&
                        inst.antenna(a).min_range == inst.antenna(b).min_range;
      EXPECT_EQ(inst.band(a).data() == inst.band(b).data(), same)
          << "antennas " << a << " and " << b;
    }
  }
  EXPECT_EQ(inst.band(0).data(), inst.band(2).data());
  EXPECT_EQ(inst.band(1).data(), inst.band(3).data());
  EXPECT_NE(inst.band(0).data(), inst.band(1).data());
}

TEST(InstanceBands, MutatorsMatchFreshConstruction) {
  model::Instance inst = banded_instance(6);
  // Every mutation below starts from a built table.
  expect_bands_are_fresh(inst, "built");
  inst.add_customer({{15.0, 0.0}, 2.0});
  expect_bands_are_fresh(inst, "add_customer");
  inst.add_customer({{0.0, 0.0}, 1.0});
  expect_bands_are_fresh(inst, "add_customer at the origin");
  inst.remove_customer(0);
  expect_bands_are_fresh(inst, "remove_customer");
  inst.remove_customer(inst.num_customers() - 1);
  expect_bands_are_fresh(inst, "remove_customer, last");
  inst.set_demand(3, 9.0);
  expect_bands_are_fresh(inst, "set_demand");
  inst.add_antenna({1.0, 12.0, 5.0, 11.0});
  expect_bands_are_fresh(inst, "add_antenna, new band");
  inst.add_antenna({1.0, 10.0, 5.0, 0.0});
  expect_bands_are_fresh(inst, "add_antenna, existing band");
  EXPECT_EQ(inst.band(0).data(), inst.band(inst.num_antennas() - 1).data());
}

// The customer edits update a built table in place: after each one every
// band equals a fresh construction's, for customers added on, inside and
// just outside the band edges and removed from the front, the middle and
// the back. A demand edit moves no one, so it keeps the table, the grid
// and their storage; a copy mutated before it ever built a table must
// agree too.
TEST(InstanceBands, CustomerEditsKeepABuiltTable) {
  model::Instance inst = banded_instance(9);
  model::Instance unbuilt = inst;  // copies start without a table
  expect_bands_are_fresh(inst, "built");

  const std::size_t* kept = inst.band(1).data();
  const sectorpack::geom::PolarGrid* grid = &inst.polar_grid();
  inst.set_demand(5, 4.0);
  unbuilt.set_demand(5, 4.0);
  EXPECT_EQ(inst.band(1).data(), kept) << "set_demand keeps the table";
  EXPECT_EQ(&inst.polar_grid(), grid) << "set_demand keeps the grid";
  expect_bands_are_fresh(inst, "set_demand");

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const model::AntennaSpec& a = inst.antenna(1);
  const double hi = a.range * (1.0 + geom::kRadiusEps);
  const double lo = a.min_range * (1.0 - geom::kRadiusEps);
  for (const double r : {hi, std::nextafter(hi, kInf), lo,
                         std::nextafter(lo, 0.0), 0.0, 1e7, 14.0}) {
    const model::Customer c{{0.0, r}, 1.0};
    inst.add_customer(c);
    unbuilt.add_customer(c);
    expect_bands_are_fresh(inst, "add_customer at radius " + std::to_string(r));
  }
  // The front, an early and a middle index, the back, and near the back.
  for (const int where : {0, 1, 2, 3, 4}) {
    const std::size_t n = inst.num_customers();
    const std::size_t i = where == 0   ? 0
                          : where == 1 ? 17
                          : where == 2 ? n / 2
                          : where == 3 ? n - 1
                                       : n - 4;
    inst.remove_customer(i);
    unbuilt.remove_customer(i);
    expect_bands_are_fresh(inst, "remove_customer " + std::to_string(i));
  }
  // A band that loses its only member and gains it back.
  model::Instance lone({{{3.0, 4.0}, 1.0}, {{30.0, 0.0}, 1.0}},
                       {{1.0, 6.0, 1.0, 4.0}, {1.0, 40.0, 1.0, 0.0}});
  ASSERT_EQ(lone.band(0).size(), 1u);
  lone.remove_customer(0);
  expect_bands_are_fresh(lone, "remove the only member");
  EXPECT_TRUE(lone.band(0).empty());
  lone.add_customer({{0.0, 5.0}, 1.0});
  expect_bands_are_fresh(lone, "add it back");

  expect_bands_are_fresh(unbuilt, "edited before building");
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    EXPECT_TRUE(std::ranges::equal(inst.band(j), unbuilt.band(j)))
        << "antenna " << j;
  }
}

// A demand edit keeps the ski-rental count too: the grid is built at the
// same eligibility query as on an instance never edited.
TEST(InstanceBands, DemandEditKeepsGridDeferral) {
  ASSERT_EQ(geom::spatial_index_mode(), geom::SpatialIndexMode::kAuto);
  std::vector<model::Customer> customers;
  sim::Rng rng(10);
  for (std::size_t i = 0; i < geom::kSpatialIndexMinCustomers; ++i) {
    customers.push_back(
        {geom::from_polar(rng.uniform(0.0, geom::kTwoPi),
                          rng.uniform(0.0, 50.0)),
         1.0});
  }
  model::Instance inst(customers, {{1.0, 20.0, 5.0, 0.0}});
  for (std::uint32_t q = 0; q < geom::kGridBuildAfterQueries; ++q) {
    if (q == geom::kGridBuildAfterQueries / 2) inst.set_demand(q, 2.0);
    EXPECT_EQ(inst.spatial_index(), nullptr) << "query " << q;
  }
  EXPECT_NE(inst.spatial_index(), nullptr);
  // A customer edit restarts the count.
  inst.add_customer({{1.0, 1.0}, 1.0});
  EXPECT_EQ(inst.spatial_index(), nullptr);
}

TEST(InstanceBands, CopyRebuildsAndMoveKeeps) {
  model::Instance inst = banded_instance(7);
  const std::size_t* built = inst.band(1).data();
  ASSERT_FALSE(inst.band(1).empty());

  const model::Instance copy = inst;  // NOLINT(performance-unnecessary-copy)
  EXPECT_NE(copy.band(1).data(), built);
  expect_bands_are_flat(copy, "copy");
  model::Instance assigned;
  assigned = inst;
  EXPECT_NE(assigned.band(1).data(), built);
  expect_bands_are_flat(assigned, "copy-assigned");

  model::Instance moved = std::move(inst);
  EXPECT_EQ(moved.band(1).data(), built);
  model::Instance move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.band(1).data(), built);
  expect_bands_are_flat(move_assigned, "moved");
}

// Concurrent first callers race to publish one table: every thread must
// read the published one. Run under TSan by scripts/check.sh --tsan.
TEST(InstanceBands, ConcurrentFirstCallersShareOneTable) {
  std::vector<model::Customer> customers;
  sim::Rng rng(8);
  for (int i = 0; i < 20000; ++i) {
    customers.push_back(
        {geom::from_polar(rng.uniform(0.0, geom::kTwoPi),
                          rng.uniform(0.0, 50.0)),
         1.0});
  }
  const model::Instance inst(customers, {{1.0, 20.0, 5.0, 10.0},
                                         {1.0, 45.0, 5.0, 30.0},
                                         {1.0, 20.0, 5.0, 10.0},
                                         {1.0, 50.0, 5.0, 0.0}});
  constexpr std::size_t kThreads = 4;
  std::vector<const std::size_t*> seen(kThreads, nullptr);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      seen[t] = inst.band(t).data();
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], inst.band(t).data()) << "thread " << t;
  }
  EXPECT_EQ(seen[0], seen[2]);
  expect_bands_are_flat(inst, "after the race");
}
