#include "src/knapsack/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/geom/sweep.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/rng.hpp"
#include "src/single/single.hpp"

namespace knapsack = sectorpack::knapsack;
namespace single = sectorpack::single;
namespace obs = sectorpack::obs;
namespace core = sectorpack::core;

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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The LP bound as IncrementalOracle computed it with trees built at
// construction: the reference the lazily built trees must match bit for
// bit.
class EagerBound {
 public:
  EagerBound(std::span<const knapsack::Item> universe, double capacity)
      : universe_(universe), capacity_(capacity) {
    const std::size_t n = universe.size();
    item_at_.resize(n);
    std::iota(item_at_.begin(), item_at_.end(), std::size_t{0});
    std::sort(item_at_.begin(), item_at_.end(),
              [&](std::size_t a, std::size_t b) {
                const knapsack::Item& ia = universe[a];
                const knapsack::Item& ib = universe[b];
                const double lhs = ia.value * ib.weight;
                const double rhs = ib.value * ia.weight;
                if (lhs != rhs) return lhs > rhs;
                if (ia.value != ib.value) return ia.value > ib.value;
                return a < b;
              });
    slot_of_.resize(n);
    for (std::size_t r = 0; r < n; ++r) slot_of_[item_at_[r]] = r;
    fen_w_.assign(n + 1, 0.0);
    fen_v_.assign(n + 1, 0.0);
    fen_c_.assign(n + 1, 0);
    while (top_bit_ * 2 <= n) top_bit_ *= 2;
  }

  void add(std::size_t i) { update(i, 1); }
  void remove(std::size_t i) { update(i, -1); }

  [[nodiscard]] double upper_bound() const {
    if (capacity_ <= 0.0 || count_ == 0) return 0.0;
    std::size_t pos = 0;
    double w = 0.0;
    double v = 0.0;
    std::int64_t c = 0;
    for (std::size_t bit = top_bit_; bit > 0; bit >>= 1) {
      const std::size_t next = pos + bit;
      if (next >= fen_w_.size()) continue;
      const double nw = w + fen_w_[next];
      if (nw <= capacity_) {
        pos = next;
        w = nw;
        v += fen_v_[next];
        c += fen_c_[next];
      }
    }
    const double remaining = capacity_ - w;
    if (remaining > 0.0 && c < positive_) {
      std::size_t p2 = 0;
      std::int64_t need = c + 1;
      for (std::size_t bit = top_bit_; bit > 0; bit >>= 1) {
        const std::size_t next = p2 + bit;
        if (next >= fen_c_.size()) continue;
        if (fen_c_[next] < need) {
          need -= fen_c_[next];
          p2 = next;
        }
      }
      const knapsack::Item& it = universe_[item_at_[p2]];
      v += it.weight > remaining ? it.value * (remaining / it.weight)
                                 : it.value;
    }
    return v;
  }

 private:
  void update(std::size_t i, int sign) {
    count_ += sign;
    const knapsack::Item& it = universe_[i];
    if (!(it.value > 0.0)) return;
    positive_ += sign;
    const std::size_t end = fen_w_.size();
    for (std::size_t x = slot_of_[i] + 1; x < end; x += x & (~x + 1)) {
      fen_w_[x] += sign * it.weight;
      fen_v_[x] += sign * it.value;
      fen_c_[x] += sign;
    }
  }

  std::span<const knapsack::Item> universe_;
  double capacity_;
  std::vector<std::size_t> item_at_;
  std::vector<std::size_t> slot_of_;
  std::vector<double> fen_w_;
  std::vector<double> fen_v_;
  std::vector<std::int64_t> fen_c_;
  std::size_t top_bit_ = 1;
  std::int64_t count_ = 0;
  std::int64_t positive_ = 0;
};

// Fractional items: one in ten has value 0 (kept out of the trees) and one
// in ten outweighs most capacities the tests draw.
std::vector<knapsack::Item> fractional_universe(sectorpack::sim::Rng& rng,
                                                std::size_t n) {
  std::vector<knapsack::Item> items(n);
  for (auto& it : items) {
    const auto pick = rng.uniform_int(10);
    it.value = pick == 0 ? 0.0 : rng.uniform(0.01, 10.0);
    it.weight = pick == 1 ? rng.uniform(20.0, 50.0) : rng.uniform(0.01, 8.0);
  }
  return items;
}

}  // namespace

// Along random add/remove sequences every bound of the lazily built trees
// equals the eager reference's bit for bit, wherever the first query
// falls, and the sign test equals `upper_bound() > 0` at every step. Then
// the sign test on adds alone, in the corners of the descent: the densest
// member fits or not, its fractional share is positive or underflows, and
// several members agree or disagree on that.
TEST(IncrementalOracle, LazyTreesMatchEager) {
  sectorpack::sim::Rng rng(49);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(40);
    const auto universe = fractional_universe(rng, n);
    const double capacity = trial % 10 == 0 ? 0.0 : rng.uniform(0.005, 60.0);
    knapsack::IncrementalOracle lazy(universe, capacity,
                                     knapsack::Oracle::greedy());
    knapsack::IncrementalOracle signs(universe, capacity,
                                      knapsack::Oracle::greedy());
    EagerBound eager(universe, capacity);
    std::vector<std::uint8_t> in(n, 0);
    // Until the first query the lazy oracle only logs; `signs` is asked
    // for the sign at every step, which needs no trees until a remove.
    const std::size_t silent = rng.uniform_int(3 * n);
    for (std::size_t step = 0; step < 6 * n; ++step) {
      const std::size_t i = rng.uniform_int(n);
      if (in[i]) {
        lazy.remove(i);
        signs.remove(i);
        eager.remove(i);
      } else {
        lazy.add(i);
        signs.add(i);
        eager.add(i);
      }
      in[i] ^= 1;
      const double want = eager.upper_bound();
      EXPECT_EQ(signs.bound_positive(), want > 0.0)
          << "trial " << trial << " step " << step;
      if (step < silent) continue;
      EXPECT_EQ(bits(lazy.upper_bound()), bits(want))
          << "trial " << trial << " step " << step << " (first query at "
          << silent << ")";
    }
  }

  struct Case {
    std::vector<knapsack::Item> items;
    double capacity;
    const char* what;
  };
  const double tiny = 1e-300;
  const std::vector<Case> cases = {
      {{{3.0, 2.0}}, 5.0, "the only member fits"},
      {{{3.0, 7.0}}, 5.0, "the only member does not fit, positive share"},
      {{{tiny, 1e10}}, tiny, "capacity / w underflows"},
      {{{tiny, 1e8}}, 1e-30, "v * (capacity / w) underflows"},
      {{{tiny, 1e8}, {tiny, 1e9}}, 1e-30, "every share underflows"},
      {{{1.0, 1.0}, {tiny, 1e10}}, tiny,
       "the densest keeps a share, another underflows"},
      {{{1.0, 1.0}, {tiny, 1e10}, {2.0, 0.5}}, 0.75,
       "the densest fits, another underflows"},
      // Both cross products underflow to 0, so the comparator falls back
      // to the larger value: the member that neither fits nor keeps a
      // share comes first, and the bound is 0 although the other fits.
      {{{1e-323, 1e-9}, {std::numeric_limits<double>::denorm_min(), 1e-11}},
       1e-10, "the first by the comparator fails, another fits"},
      {{{0.0, 1.0}, {5.0, 9.0}}, 4.0, "a zero-value member stays out"},
      {{{0.0, 1.0}}, 4.0, "no positive member"},
      {{{2.0, 0.0}}, 4.0, "a weightless member"},
      {{{2.0, 3.0}}, 0.0, "zero capacity"},
      {{{2.0, 3.0}}, std::numeric_limits<double>::denorm_min(),
       "the least positive capacity"},
  };
  for (const Case& c : cases) {
    knapsack::IncrementalOracle lazy(c.items, c.capacity,
                                     knapsack::Oracle::greedy());
    EagerBound eager(c.items, c.capacity);
    EXPECT_FALSE(lazy.bound_positive()) << c.what << ", empty";
    for (std::size_t i = 0; i < c.items.size(); ++i) {
      lazy.add(i);
      eager.add(i);
      EXPECT_EQ(lazy.bound_positive(), eager.upper_bound() > 0.0)
          << c.what << ", " << i + 1 << " added";
    }
    EXPECT_EQ(bits(lazy.upper_bound()), bits(eager.upper_bound())) << c.what;
  }
}

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

namespace {

// The window scan before the ceiling stop: every window walked, the LP
// bound asked at each one. The reference best_window_weighted must match.
single::WindowChoice full_walk(std::span<const double> thetas,
                               std::span<const double> values,
                               std::span<const double> demands, double rho,
                               double capacity, const knapsack::Oracle& oracle,
                               knapsack::OracleCache* cache,
                               std::span<const std::size_t> ids) {
  const sectorpack::geom::WindowSweep sweep(thetas, rho);
  const std::size_t nw = sweep.num_windows();
  if (nw == 0) return {};
  std::vector<knapsack::Item> universe(thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    universe[i] = {values[i], demands[i]};
  }
  knapsack::IncrementalOracle inc(universe, capacity, oracle, cache, ids);
  single::WindowChoice best;
  knapsack::IncrementalStats stats;
  for (std::size_t m : sweep.members(0)) inc.add(m);
  for (std::size_t w = 0; w < nw; ++w) {
    if (w > 0) {
      const sectorpack::geom::WindowDelta d = sweep.delta(w);
      for (std::size_t m : d.leave) inc.remove(m);
      for (std::size_t m : d.enter) inc.add(m);
    }
    if (inc.value_sum() <= best.value) continue;
    if (inc.upper_bound() <= best.value) continue;
    knapsack::Result res = inc.solve(sweep.members(w), &stats);
    if (res.value > best.value) {
      best.value = res.value;
      best.alpha = sweep.alpha(w);
      best.chosen = std::move(res.chosen);
    }
  }
  return best;
}

struct Scan {
  std::vector<double> thetas;
  std::vector<double> values;
  std::vector<double> demands;
  std::vector<std::size_t> ids;
  double rho = 1.0;
};

enum class Universe { kUnit, kSmallInts, kFractional, kValueWeighted };

Scan random_scan(sectorpack::sim::Rng& rng, Universe kind) {
  Scan s;
  const std::size_t n = 1 + rng.uniform_int(24);
  s.rho = rng.uniform(0.3, 3.5);
  for (std::size_t i = 0; i < n; ++i) {
    // Every third angle on a coarse lattice, so windows share edges.
    s.thetas.push_back(i % 3 == 0 ? static_cast<double>(rng.uniform_int(24)) *
                                        sectorpack::geom::kTwoPi / 24.0
                                  : rng.uniform(0.0, 6.28));
    double demand = 1.0;
    if (kind == Universe::kSmallInts || kind == Universe::kValueWeighted) {
      demand = static_cast<double>(rng.uniform_int(1, 10));
    } else if (kind == Universe::kFractional) {
      demand = rng.uniform(0.1, 10.0);
    }
    s.demands.push_back(demand);
    s.values.push_back(kind == Universe::kValueWeighted
                           ? static_cast<double>(rng.uniform_int(1, 20))
                           : demand);
    s.ids.push_back(3 * i + 1);
  }
  return s;
}

// A scan's outcome, or nullopt when the oracle refused the window (the
// DP on fractional weights): both scans must refuse alike.
template <class F>
std::optional<single::WindowChoice> outcome(F&& scan) {
  try {
    return scan();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

void expect_same_choice(const std::optional<single::WindowChoice>& want,
                        const std::optional<single::WindowChoice>& got,
                        const std::string& where) {
  ASSERT_EQ(want.has_value(), got.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(bits(got->value), bits(want->value)) << where;
  EXPECT_EQ(bits(got->alpha), bits(want->alpha)) << where;
  EXPECT_EQ(got->chosen, want->chosen) << where;
  EXPECT_EQ(got->complete, want->complete) << where;
}

std::uint64_t counter_delta(const obs::Snapshot& before,
                            const obs::Snapshot& after, const char* name) {
  return after.counter(name) - before.counter(name);
}

// sweep.delta.steps against the four ways a walked window is disposed of.
void expect_steps_identity(const obs::Snapshot& before,
                           const obs::Snapshot& after,
                           const std::string& where) {
  EXPECT_EQ(counter_delta(before, after, "sweep.delta.steps"),
            counter_delta(before, after, "oracle.skip_sum") +
                counter_delta(before, after, "oracle.skip_bound") +
                counter_delta(before, after, "oracle.cache.hits") +
                counter_delta(before, after, "oracle.solves"))
      << where;
}

}  // namespace

TEST(BestWindow, CeilingStopMatchesFullWalk) {
  const std::vector<std::pair<knapsack::Oracle, const char*>> oracles = {
      {knapsack::Oracle::exact(), "exact"},
      {knapsack::Oracle(knapsack::OracleKind::kExactDP), "exact-dp"},
      {knapsack::Oracle(knapsack::OracleKind::kExactBB), "exact-bb"},
      {knapsack::Oracle::greedy(), "greedy"},
      {knapsack::Oracle::fptas(0.2), "fptas"},
  };
  const std::vector<std::pair<Universe, const char*>> universes = {
      {Universe::kUnit, "unit"},
      {Universe::kSmallInts, "1-10"},
      {Universe::kFractional, "fractional"},
      {Universe::kValueWeighted, "value-weighted"},
  };
  sectorpack::sim::Rng rng(50);
  obs::set_enabled(true);
  const obs::Snapshot start = obs::snapshot();
  // Windows and walked windows of the integral scans below their total.
  std::uint64_t windows = 0;
  std::uint64_t walked = 0;
  for (const auto& [kind, kind_name] : universes) {
    for (int trial = 0; trial < 8; ++trial) {
      const Scan s = random_scan(rng, kind);
      const double total =
          std::accumulate(s.demands.begin(), s.demands.end(), 0.0);
      const double k = std::floor(total / 3.0) + 1.0;
      const std::vector<double> capacities = {
          0.0, 1e-300, k + 0.5, k + 1e-10, k - 1e-10, total + 5.0};
      for (const double capacity : capacities) {
        for (const auto& [oracle, oracle_name] : oracles) {
          const std::string where =
              std::string(kind_name) + " trial " + std::to_string(trial) +
              ", capacity " + std::to_string(capacity) + ", " + oracle_name;
          const auto plain = [&](knapsack::OracleCache* cache) {
            return outcome([&] {
              return single::best_window_weighted(
                  s.thetas, s.values, s.demands, s.rho, capacity, oracle,
                  cache, cache == nullptr ? std::span<const std::size_t>()
                                          : s.ids);
            });
          };
          const auto reference = [&](knapsack::OracleCache* cache) {
            return outcome([&] {
              return full_walk(s.thetas, s.values, s.demands, s.rho, capacity,
                               oracle, cache,
                               cache == nullptr
                                   ? std::span<const std::size_t>()
                                   : s.ids);
            });
          };
          const obs::Snapshot before = obs::snapshot();
          expect_same_choice(reference(nullptr), plain(nullptr),
                             where + ", no cache");
          knapsack::OracleCache ref_cache;
          knapsack::OracleCache cache;
          expect_same_choice(reference(&ref_cache), plain(&cache),
                             where + ", cold cache");
          expect_same_choice(reference(&ref_cache), plain(&cache),
                             where + ", warm cache");
          if (kind != Universe::kFractional && capacity < total) {
            windows += 3 * sectorpack::geom::WindowSweep(s.thetas, s.rho)
                               .num_windows();
            walked += counter_delta(before, obs::snapshot(),
                                    "sweep.delta.steps");
          }
        }
      }
    }
  }
  const obs::Snapshot end = obs::snapshot();
  obs::set_enabled(false);
  expect_steps_identity(start, end, "all scans");
  // The stop engages: the integral scans below their total walk fewer
  // windows than they have.
  EXPECT_LT(walked, windows);
}

// sweep.delta.steps counts the windows walked, so it equals the windows
// skipped by sum or bound plus the cache hits plus the solves, whether the
// scan ran out, stopped at the ceiling or was cut by its deadline.
TEST(BestWindow, StepsCountWalkedWindows) {
  constexpr std::size_t n = 100;
  std::vector<double> thetas(n);
  std::vector<double> unit(n, 1.0);
  std::vector<double> fractional(n);
  for (std::size_t i = 0; i < n; ++i) {
    thetas[i] = sectorpack::geom::kTwoPi * static_cast<double>(i) / n;
    fractional[i] = 0.5 + 0.01 * static_cast<double>(i % 7);
  }
  const double rho = 0.6;  // about ten customers per window
  const knapsack::Oracle oracle = knapsack::Oracle::exact();
  obs::set_enabled(true);

  // Window 0 packs the whole capacity of 5: the ceiling stops the walk.
  obs::Snapshot before = obs::snapshot();
  const single::WindowChoice stopped =
      single::best_window(thetas, unit, rho, 5.0, oracle);
  obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(stopped.value, 5.0);
  EXPECT_TRUE(stopped.complete);
  EXPECT_EQ(counter_delta(before, after, "sweep.windows"), n);
  EXPECT_EQ(counter_delta(before, after, "sweep.delta.steps"), 1u);
  EXPECT_EQ(counter_delta(before, after, "oracle.solves"), 1u);
  expect_steps_identity(before, after, "ceiling stop");

  // Fractional demands have no ceiling: every window is walked.
  before = obs::snapshot();
  (void)single::best_window(thetas, fractional, rho, 5.0, oracle);
  after = obs::snapshot();
  EXPECT_EQ(counter_delta(before, after, "sweep.delta.steps"), n);
  expect_steps_identity(before, after, "full walk");

  // An expired deadline stops the walk before window 0.
  before = obs::snapshot();
  const single::WindowChoice cut =
      single::best_window(thetas, fractional, rho, 5.0, oracle, nullptr, {},
                          core::Deadline::after(0.0));
  after = obs::snapshot();
  EXPECT_FALSE(cut.complete);
  EXPECT_EQ(counter_delta(before, after, "sweep.windows"), n);
  EXPECT_EQ(counter_delta(before, after, "sweep.delta.steps"), 0u);
  expect_steps_identity(before, after, "expired deadline");

  // A deadline cancelled while a long scan runs: wherever the walk stops,
  // the windows it counts are the windows it disposed of.
  constexpr std::size_t big = 20000;
  std::vector<double> big_thetas(big);
  std::vector<double> big_demands(big);
  for (std::size_t i = 0; i < big; ++i) {
    big_thetas[i] = sectorpack::geom::kTwoPi * static_cast<double>(i) / big;
    big_demands[i] = 0.5 + 0.001 * static_cast<double>(i % 97);
  }
  for (const int micros : {0, 200, 2000}) {
    const core::Deadline deadline = core::Deadline::cancellable();
    before = obs::snapshot();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(micros));
      deadline.cancel();
    });
    const single::WindowChoice partial =
        single::best_window(big_thetas, big_demands, 0.05, 4.0,
                            knapsack::Oracle::greedy(), nullptr, {}, deadline);
    canceller.join();
    after = obs::snapshot();
    const std::string where = "cancelled after " + std::to_string(micros) +
                              " us, complete " +
                              std::to_string(partial.complete);
    EXPECT_LE(counter_delta(before, after, "sweep.delta.steps"), big) << where;
    expect_steps_identity(before, after, where);
  }
  obs::set_enabled(false);
}
