#include "src/knapsack/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/knapsack/knapsack.hpp"
#include "src/sim/rng.hpp"
#include "src/single/single.hpp"

namespace knapsack = sectorpack::knapsack;
namespace single = sectorpack::single;

namespace {

std::vector<knapsack::Item> random_universe(sectorpack::sim::Rng& rng,
                                            std::size_t n) {
  std::vector<knapsack::Item> items(n);
  for (auto& it : items) {
    it.value = 1.0 + static_cast<double>(rng.uniform_int(99));
    it.weight = 1.0 + static_cast<double>(rng.uniform_int(49));
  }
  return items;
}

// A random member subset reached through shuffled adds and interleaved
// remove/re-add churn, so the Fenwick state is exercised off the straight
// build-up path.
std::vector<std::size_t> churn_to_subset(sectorpack::sim::Rng& rng,
                                         knapsack::IncrementalOracle& inc,
                                         std::size_t n) {
  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(0.0, 1.0) < 0.6) {
      inc.add(i);
      members.push_back(i);
    }
  }
  // Churn: remove then re-add a few members.
  for (std::size_t m : members) {
    if (rng.uniform(0.0, 1.0) < 0.3) {
      inc.remove(m);
      inc.add(m);
    }
  }
  return members;
}

}  // namespace

TEST(IncrementalOracle, UpperBoundMatchesFractionalUpperBound) {
  sectorpack::sim::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(40);
    const auto universe = random_universe(rng, n);
    const double capacity = 1.0 + static_cast<double>(rng.uniform_int(300));
    knapsack::IncrementalOracle inc(universe, capacity,
                                    knapsack::Oracle::exact());
    const auto members = churn_to_subset(rng, inc, n);

    std::vector<knapsack::Item> sub;
    for (std::size_t m : members) sub.push_back(universe[m]);
    const double want = knapsack::fractional_upper_bound(sub, capacity);
    EXPECT_NEAR(inc.upper_bound(), want, 1e-7 * (1.0 + want))
        << "trial " << trial << " n=" << n << " |S|=" << members.size();
  }
}

TEST(IncrementalOracle, SumsAndCountTrackMembership) {
  sectorpack::sim::Rng rng(43);
  const std::size_t n = 30;
  const auto universe = random_universe(rng, n);
  knapsack::IncrementalOracle inc(universe, 100.0,
                                  knapsack::Oracle::greedy());
  const auto members = churn_to_subset(rng, inc, n);

  double vsum = 0.0;
  double wsum = 0.0;
  for (std::size_t m : members) {
    vsum += universe[m].value;
    wsum += universe[m].weight;
  }
  EXPECT_EQ(inc.count(), members.size());
  EXPECT_NEAR(inc.value_sum(), vsum, 1e-9);
  EXPECT_NEAR(inc.weight_sum(), wsum, 1e-9);
}

TEST(IncrementalOracle, FingerprintIsOrderIndependentAndReversible) {
  sectorpack::sim::Rng rng(44);
  const std::size_t n = 20;
  const auto universe = random_universe(rng, n);
  const knapsack::Oracle oracle = knapsack::Oracle::exact();

  knapsack::IncrementalOracle a(universe, 50.0, oracle);
  knapsack::IncrementalOracle b(universe, 50.0, oracle);
  // Same set, different construction order, extra churn on one side.
  for (std::size_t i : {3u, 7u, 11u, 19u}) a.add(i);
  for (std::size_t i : {19u, 3u, 11u, 7u}) b.add(i);
  b.remove(11);
  b.add(11);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.count(), b.count());

  a.remove(7);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  a.add(7);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Different sets of the same size should (overwhelmingly) differ.
  knapsack::IncrementalOracle c(universe, 50.0, oracle);
  for (std::size_t i : {3u, 7u, 11u, 18u}) c.add(i);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(IncrementalOracle, SolveMatchesBatchOracleExactly) {
  sectorpack::sim::Rng rng(45);
  for (const knapsack::Oracle& oracle :
       {knapsack::Oracle::exact(), knapsack::Oracle::greedy(),
        knapsack::Oracle::fptas(0.2)}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 1 + rng.uniform_int(20);
      const auto universe = random_universe(rng, n);
      const double capacity = 1.0 + static_cast<double>(rng.uniform_int(120));
      knapsack::IncrementalOracle inc(universe, capacity, oracle);
      auto members = churn_to_subset(rng, inc, n);
      std::sort(members.begin(), members.end());

      std::vector<knapsack::Item> sub;
      for (std::size_t m : members) sub.push_back(universe[m]);
      const knapsack::Result want = oracle.solve(sub, capacity);

      knapsack::IncrementalStats stats;
      const knapsack::Result got = inc.solve(members, &stats);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.weight, want.weight);
      ASSERT_EQ(got.chosen.size(), want.chosen.size());
      for (std::size_t i = 0; i < got.chosen.size(); ++i) {
        EXPECT_EQ(got.chosen[i], members[want.chosen[i]]);
      }
      EXPECT_EQ(stats.solves, 1u);
    }
  }
}

TEST(OracleCache, HitReplaysTheSolvedPacking) {
  sectorpack::sim::Rng rng(46);
  const std::size_t n = 15;
  const auto universe = random_universe(rng, n);
  const knapsack::Oracle oracle = knapsack::Oracle::exact();
  knapsack::OracleCache cache;

  knapsack::IncrementalOracle first(universe, 60.0, oracle, &cache);
  knapsack::IncrementalOracle second(universe, 60.0, oracle, &cache);
  std::vector<std::size_t> members = {1, 4, 6, 9, 12};
  for (std::size_t m : members) first.add(m);
  for (std::size_t m : {12u, 1u, 9u, 4u, 6u}) second.add(m);

  knapsack::IncrementalStats s1;
  const knapsack::Result a = first.solve(members, &s1);
  EXPECT_EQ(s1.cache_misses, 1u);
  EXPECT_EQ(s1.solves, 1u);
  EXPECT_EQ(cache.size(), 1u);

  knapsack::IncrementalStats s2;
  const knapsack::Result b = second.solve(members, &s2);
  EXPECT_EQ(s2.cache_hits, 1u);
  EXPECT_EQ(s2.solves, 0u);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.chosen, b.chosen);
}

TEST(OracleCache, StableIdsBridgeDifferentLocalNumberings) {
  // The same customer set reached through two differently-filtered local
  // lists (as in successive greedy rounds) must share cache entries, with
  // chosen picks remapped into each call's local indices.
  const std::vector<knapsack::Item> all = {
      {10.0, 4.0}, {8.0, 3.0}, {6.0, 2.0}, {4.0, 5.0}};
  const knapsack::Oracle oracle = knapsack::Oracle::exact();
  knapsack::OracleCache cache;

  // Round 1: customers {0,1,2,3} present locally as-is.
  const std::vector<std::size_t> ids_a = {100, 200, 300, 400};
  knapsack::IncrementalOracle a(all, 6.0, oracle, &cache, ids_a);
  a.add(1);
  a.add(2);
  knapsack::IncrementalStats sa;
  const std::vector<std::size_t> members_a = {1, 2};
  const knapsack::Result ra = a.solve(members_a, &sa);
  EXPECT_EQ(sa.cache_misses, 1u);

  // Round 2: customer 0 was served; the local list shifts down by one.
  const std::vector<knapsack::Item> rest = {all[1], all[2], all[3]};
  const std::vector<std::size_t> ids_b = {200, 300, 400};
  knapsack::IncrementalOracle b(rest, 6.0, oracle, &cache, ids_b);
  b.add(0);
  b.add(1);
  knapsack::IncrementalStats sb;
  const std::vector<std::size_t> members_b = {0, 1};
  const knapsack::Result rb = b.solve(members_b, &sb);
  EXPECT_EQ(sb.cache_hits, 1u);
  EXPECT_EQ(sb.solves, 0u);

  EXPECT_EQ(ra.value, rb.value);
  ASSERT_EQ(ra.chosen.size(), rb.chosen.size());
  // Same stable ids behind each pick.
  for (std::size_t i = 0; i < ra.chosen.size(); ++i) {
    EXPECT_EQ(ids_a[ra.chosen[i]], ids_b[rb.chosen[i]]);
  }
}

// A 64-bit key collision, forged: an entry stored under the current member
// set's key whose ids are absent from the universe or not members of the
// window. Each must be rejected, counted as a collision and a miss, and the
// window solved exactly as without a cache.
TEST(OracleCache, CollidingEntriesAreSolvedLikeMisses) {
  sectorpack::sim::Rng rng(48);
  const std::size_t n = 12;
  const auto universe = random_universe(rng, n);
  const knapsack::Oracle oracle = knapsack::Oracle::exact();
  const std::vector<std::size_t> members = {1, 4, 6, 9};
  std::vector<std::size_t> stable(n);
  for (std::size_t i = 0; i < n; ++i) stable[i] = 100 + 10 * i;

  knapsack::IncrementalOracle plain(universe, 60.0, oracle);
  for (std::size_t m : members) plain.add(m);
  const knapsack::Result want = plain.solve(members, nullptr);

  struct Forgery {
    bool with_ids;
    std::vector<std::size_t> chosen_ids;
    std::string what;
  };
  const std::size_t huge = std::numeric_limits<std::size_t>::max();
  const std::vector<Forgery> forgeries = {
      {false, {n}, "index past the universe"},
      {false, {huge}, "index far past the universe"},
      {false, {2}, "index of a non-member"},
      {false, {1, 6, 7}, "members plus a non-member"},
      {true, {105}, "id between two universe ids"},
      {true, {huge}, "id past the last universe id"},
      {true, {120}, "id of a non-member"},
      {true, {110, 160, 170}, "member ids plus a non-member id"},
  };
  for (const Forgery& f : forgeries) {
    knapsack::OracleCache cache;
    knapsack::IncrementalOracle inc(
        universe, 60.0, oracle, &cache,
        f.with_ids ? std::span<const std::size_t>(stable)
                   : std::span<const std::size_t>());
    for (std::size_t m : members) inc.add(m);
    cache.store(inc.fingerprint(), {1e9, 0.0, f.chosen_ids});

    knapsack::IncrementalStats stats;
    const knapsack::Result got = inc.solve(members, &stats);
    EXPECT_EQ(stats.cache_collisions, 1u) << f.what;
    EXPECT_EQ(stats.cache_misses, 1u) << f.what;
    EXPECT_EQ(stats.cache_hits, 0u) << f.what;
    EXPECT_EQ(stats.solves, stats.cache_misses) << f.what;
    EXPECT_EQ(got.value, want.value) << f.what;
    EXPECT_EQ(got.weight, want.weight) << f.what;
    EXPECT_EQ(got.chosen, want.chosen) << f.what;
  }
}

TEST(BestWindow, CachedAndUncachedScansAgreeBitForBit) {
  sectorpack::sim::Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5 + rng.uniform_int(30);
    std::vector<double> thetas(n);
    std::vector<double> values(n);
    std::vector<double> demands(n);
    std::vector<std::size_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      thetas[i] = rng.uniform(0.0, 6.28);
      values[i] = 1.0 + static_cast<double>(rng.uniform_int(50));
      demands[i] = 1.0 + static_cast<double>(rng.uniform_int(20));
      ids[i] = i;
    }
    const double rho = 1.0;
    const double capacity = 40.0;
    const knapsack::Oracle oracle = knapsack::Oracle::exact();

    const single::WindowChoice plain = single::best_window_weighted(
        thetas, values, demands, rho, capacity, oracle);
    knapsack::OracleCache cache;
    const single::WindowChoice cold = single::best_window_weighted(
        thetas, values, demands, rho, capacity, oracle, &cache, ids);
    const single::WindowChoice warm = single::best_window_weighted(
        thetas, values, demands, rho, capacity, oracle, &cache, ids);

    EXPECT_EQ(plain.value, cold.value);
    EXPECT_EQ(plain.alpha, cold.alpha);
    EXPECT_EQ(plain.chosen, cold.chosen);
    EXPECT_EQ(cold.value, warm.value);
    EXPECT_EQ(cold.alpha, warm.alpha);
    EXPECT_EQ(cold.chosen, warm.chosen);
  }
}
