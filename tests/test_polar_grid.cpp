#include "src/geom/polar_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/assign/assign.hpp"
#include "src/bounds/upper.hpp"
#include "src/geom/sector.hpp"
#include "src/geom/sweep.hpp"
#include "src/model/instance.hpp"
#include "src/sectors/sectors.hpp"
#include "src/sim/adversarial.hpp"
#include "src/sim/generators.hpp"
#include "src/sim/rng.hpp"
#include "src/single/single.hpp"

namespace geom = sectorpack::geom;
namespace model = sectorpack::model;
namespace sim = sectorpack::sim;

namespace {

// Restore the process-wide crossover mode on scope exit so a failing test
// cannot leak kForceIndexed into unrelated tests in the same binary.
struct ModeGuard {
  geom::SpatialIndexMode saved = geom::spatial_index_mode();
  ~ModeGuard() { geom::set_spatial_index_mode(saved); }
};

struct Points {
  std::vector<double> thetas;
  std::vector<double> radii;
};

Points clustered_points(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  Points p;
  p.thetas.reserve(n);
  p.radii.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:  // hotspot: tight angular cluster at mid radius
        p.thetas.push_back(geom::normalize(1.0 + rng.uniform(-0.05, 0.05)));
        p.radii.push_back(rng.uniform(40.0, 45.0));
        break;
      case 1:  // ring road: any angle, nearly fixed radius
        p.thetas.push_back(rng.uniform(0.0, geom::kTwoPi));
        p.radii.push_back(80.0 + rng.uniform(-0.5, 0.5));
        break;
      case 2:  // origin pile-up, including exact zeros
        p.thetas.push_back(rng.uniform(0.0, geom::kTwoPi));
        p.radii.push_back(rng.uniform_int(0, 4) == 0 ? 0.0
                                                     : rng.uniform(0.0, 2.0));
        break;
      default:  // uniform background
        p.thetas.push_back(rng.uniform(0.0, geom::kTwoPi));
        p.radii.push_back(rng.uniform(0.0, 100.0));
        break;
    }
  }
  return p;
}

// Flat reference for collect_annulus: the exact predicate the grid promises.
std::vector<std::size_t> flat_annulus(const Points& p, double r_lo,
                                      double r_hi) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < p.radii.size(); ++i) {
    if (p.radii[i] <= r_hi && p.radii[i] >= r_lo) out.push_back(i);
  }
  return out;
}

// Flat reference for collect_sector.
std::vector<std::size_t> flat_sector(const Points& p,
                                     const geom::Sector& sector) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < p.thetas.size(); ++i) {
    if (sector.contains(geom::Polar{p.thetas[i], p.radii[i]})) {
      out.push_back(i);
    }
  }
  return out;
}

model::Instance random_instance(std::uint64_t seed, std::size_t n,
                                std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  const Points p = clustered_points(seed * 7919 + 13, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(p.thetas[i], p.radii[i],
                         static_cast<double>(rng.uniform_int(1, 5)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    const double min_range = j % 2 == 0 ? 0.0 : rng.uniform(1.0, 10.0);
    b.add_antenna(rng.uniform(0.3, 2.0), rng.uniform(20.0, 90.0),
                  static_cast<double>(rng.uniform_int(20, 80)), min_range);
  }
  return b.build();
}

}  // namespace

TEST(PolarGrid, AnnulusMatchesFlatOnRandomWindows) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Points p = clustered_points(seed, 5000);
    const geom::PolarGrid grid(p.thetas, p.radii);
    sim::Rng rng(seed + 100);
    std::vector<std::size_t> got;
    for (int q = 0; q < 400; ++q) {
      double a = rng.uniform(-5.0, 105.0);
      double b = rng.uniform(-5.0, 105.0);
      if (a > b) std::swap(a, b);
      grid.collect_annulus(a, b, got);
      EXPECT_EQ(got, flat_annulus(p, a, b)) << "seed " << seed << " q " << q;
    }
    // Degenerate and empty bands.
    grid.collect_annulus(80.0, 80.0, got);
    EXPECT_EQ(got, flat_annulus(p, 80.0, 80.0));
    grid.collect_annulus(50.0, 40.0, got);  // inverted: empty
    EXPECT_TRUE(got.empty());
    grid.collect_annulus(0.0, 1e300, got);  // everything
    EXPECT_EQ(got.size(), p.radii.size());
  }
}

TEST(PolarGrid, SectorMatchesFlatOnRandomWindows) {
  for (std::uint64_t seed : {11u, 12u}) {
    const Points p = clustered_points(seed, 4000);
    const geom::PolarGrid grid(p.thetas, p.radii);
    sim::Rng rng(seed + 200);
    std::vector<std::size_t> got;
    for (int q = 0; q < 500; ++q) {
      const double start = rng.uniform(0.0, geom::kTwoPi);
      const double width = rng.uniform(0.0, geom::kTwoPi);
      const double range = rng.uniform(0.0, 110.0);
      const double min_range =
          q % 3 == 0 ? 0.0 : rng.uniform(0.0, range * 0.5);
      const geom::Sector s{{start, width}, range, min_range};
      grid.collect_sector(s, got);
      EXPECT_EQ(got, flat_sector(p, s)) << "seed " << seed << " q " << q;
    }
    // Full-circle and hairline wedges anchored on actual point angles: the
    // FP-boundary cases the conservative wedge walk has to get right.
    for (int q = 0; q < 100; ++q) {
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(0, 3999));
      const geom::Sector s{{p.thetas[i], q % 2 == 0 ? 0.0 : geom::kTwoPi},
                           p.radii[i], 0.0};
      grid.collect_sector(s, got);
      EXPECT_EQ(got, flat_sector(p, s)) << "anchored q " << q;
    }
  }
}

TEST(PolarGrid, EdgeCaseGeometries) {
  std::vector<std::size_t> got;
  {  // empty
    const geom::PolarGrid grid(std::span<const double>{},
                               std::span<const double>{});
    grid.collect_annulus(0.0, 10.0, got);
    EXPECT_TRUE(got.empty());
    grid.collect_sector({{0.0, geom::kTwoPi}, 10.0, 0.0}, got);
    EXPECT_TRUE(got.empty());
  }
  {  // single point
    const Points p{{1.0}, {5.0}};
    const geom::PolarGrid grid(p.thetas, p.radii);
    grid.collect_annulus(5.0, 5.0, got);
    EXPECT_EQ(got, (std::vector<std::size_t>{0}));
    grid.collect_sector({{1.0, 0.0}, 5.0, 0.0}, got);
    EXPECT_EQ(got, (std::vector<std::size_t>{0}));
  }
  {  // all points share one angle and one radius (every quantile edge equal)
    const Points p{std::vector<double>(300, 2.5),
                   std::vector<double>(300, 7.0)};
    const geom::PolarGrid grid(p.thetas, p.radii);
    grid.collect_annulus(7.0, 7.0, got);
    EXPECT_EQ(got.size(), 300u);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    grid.collect_sector({{2.5, 0.0}, 7.0, 0.0}, got);
    EXPECT_EQ(got.size(), 300u);
    grid.collect_sector({{2.5 + 1.0, 0.5}, 7.0, 0.0}, got);
    EXPECT_TRUE(got.empty());
  }
  {  // origin points are covered by any sector that admits r == 0
    const Points p{{0.0, 3.0, 6.0}, {0.0, 0.0, 4.0}};
    const geom::PolarGrid grid(p.thetas, p.radii);
    grid.collect_sector({{1.0, 0.1}, 5.0, 0.0}, got);
    EXPECT_EQ(got, (std::vector<std::size_t>{0, 1}));
    grid.collect_sector({{1.0, 0.1}, 5.0, 1.0}, got);  // dead zone excludes
    EXPECT_EQ(flat_sector(p, {{1.0, 0.1}, 5.0, 1.0}), got);
  }
  {  // non-finite radii never match (same as the flat predicate)
    const Points p{{0.0, 1.0, 2.0},
                   {std::nan(""), std::numeric_limits<double>::infinity(),
                    3.0}};
    const geom::PolarGrid grid(p.thetas, p.radii);
    grid.collect_annulus(0.0, 1e308, got);
    EXPECT_EQ(got, (std::vector<std::size_t>{2}));
    grid.collect_sector({{0.0, geom::kTwoPi}, 1e308, 0.0}, got);
    EXPECT_EQ(got, flat_sector(p, {{0.0, geom::kTwoPi}, 1e308, 0.0}));
  }
}

TEST(PolarGrid, InstanceInRangeCustomersIsModeInvariant) {
  ModeGuard guard;
  const model::Instance inst = random_instance(42, 3000, 6);
  std::vector<std::size_t> flat, indexed;
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceFlat);
    inst.in_range_customers(j, flat);
    geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceIndexed);
    inst.in_range_customers(j, indexed);
    EXPECT_EQ(flat, indexed) << "antenna " << j;
  }
}

// The headline bit-identity contract: full solver outputs agree between the
// forced-flat and forced-indexed paths, byte for byte, across solver
// families that adopted the grid.
TEST(PolarGrid, SolversAreBitIdenticalAcrossModes) {
  ModeGuard guard;
  for (std::uint64_t seed : {7u, 8u}) {
    const model::Instance inst = random_instance(seed, 1500, 5);

    geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceFlat);
    const model::Solution g_flat = sectorpack::sectors::solve_greedy(inst);
    const model::Solution l_flat =
        sectorpack::sectors::solve_local_search(inst);
    const model::Solution s_flat = sectorpack::single::solve_greedy(inst);
    std::vector<double> alphas(inst.num_antennas(), 0.5);
    const auto e_flat = sectorpack::assign::compute_eligibility(inst, alphas);
    const double of_flat = sectorpack::bounds::orientation_free_bound(inst);
    const double fw_flat = sectorpack::bounds::flow_window_bound(inst);

    geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceIndexed);
    const model::Solution g_idx = sectorpack::sectors::solve_greedy(inst);
    const model::Solution l_idx =
        sectorpack::sectors::solve_local_search(inst);
    const model::Solution s_idx = sectorpack::single::solve_greedy(inst);
    const auto e_idx = sectorpack::assign::compute_eligibility(inst, alphas);
    const double of_idx = sectorpack::bounds::orientation_free_bound(inst);
    const double fw_idx = sectorpack::bounds::flow_window_bound(inst);

    EXPECT_EQ(g_flat.alpha, g_idx.alpha) << "seed " << seed;
    EXPECT_EQ(g_flat.assign, g_idx.assign);
    EXPECT_EQ(l_flat.alpha, l_idx.alpha);
    EXPECT_EQ(l_flat.assign, l_idx.assign);
    EXPECT_EQ(s_flat.alpha, s_idx.alpha);
    EXPECT_EQ(s_flat.assign, s_idx.assign);
    EXPECT_EQ(e_flat.per_antenna, e_idx.per_antenna);
    EXPECT_EQ(e_flat.per_customer, e_idx.per_customer);
    EXPECT_EQ(of_flat, of_idx);
    EXPECT_EQ(fw_flat, fw_idx);
  }
}

TEST(PolarGrid, InstanceGridIsCachedAndCopySafe) {
  const model::Instance inst = random_instance(3, 5000, 2);
  const geom::PolarGrid* first = &inst.polar_grid();
  EXPECT_EQ(first, &inst.polar_grid());  // same object on re-request
  EXPECT_EQ(first->num_points(), inst.num_customers());

  // A copy must not share (or dangle into) the original's cached grid.
  const model::Instance copy = inst;  // NOLINT(performance-unnecessary-copy)
  const geom::PolarGrid& copy_grid = copy.polar_grid();
  EXPECT_NE(&copy_grid, first);
  std::vector<std::size_t> a, b;
  first->collect_annulus(10.0, 60.0, a);
  copy_grid.collect_annulus(10.0, 60.0, b);
  EXPECT_EQ(a, b);
}

// WindowSweep's bucket-sorted fast path must produce exactly the sweep the
// flat sort produces: same windows, same member order, same deltas. Checked
// at a size above the crossover threshold so the fast path actually runs.
TEST(PolarGrid, WindowSweepDeltaMatchesRebuildAtScale) {
  ModeGuard guard;
  const std::size_t n = 100000;
  sim::Rng rng(99);
  std::vector<double> thetas(n);
  for (double& t : thetas) {
    // Mix of uniform angles and duplicated hotspot angles to exercise ties.
    t = rng.uniform_int(0, 9) == 0 ? 1.25 : rng.uniform(0.0, geom::kTwoPi);
  }
  const double rho = 0.8;

  geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceFlat);
  const geom::WindowSweep flat(thetas, rho);
  geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceIndexed);
  const geom::WindowSweep fast(thetas, rho);

  ASSERT_EQ(flat.num_windows(), fast.num_windows());
  ASSERT_EQ(flat.num_directions(), fast.num_directions());
  for (std::size_t p = 0; p < 2 * flat.num_directions(); ++p) {
    ASSERT_EQ(flat.sorted_index(p), fast.sorted_index(p)) << "pos " << p;
  }

  // Delta-walk the fast sweep, maintaining membership incrementally, and
  // compare against members(w) rebuilt from scratch on sampled windows.
  std::vector<char> in(n, 0);
  for (std::size_t i : fast.members(0)) in[i] = 1;
  for (std::size_t w = 1; w < fast.num_windows(); ++w) {
    const geom::WindowDelta d = fast.delta(w);
    for (std::size_t i : d.leave) in[i] = 0;
    for (std::size_t i : d.enter) in[i] = 1;
    if (w % 997 != 0 && w + 1 != fast.num_windows()) continue;
    std::size_t count = 0;
    for (std::size_t i : fast.members(w)) {
      EXPECT_TRUE(in[i]) << "window " << w << " member " << i;
      ++count;
    }
    const std::size_t live =
        static_cast<std::size_t>(std::count(in.begin(), in.end(), 1));
    EXPECT_EQ(count, live) << "window " << w;
    EXPECT_EQ(count, flat.members(w).size()) << "window " << w;
  }
}
