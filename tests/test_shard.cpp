#include "src/shard/shard.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "src/bench_util/timer.hpp"
#include "src/core/deadline.hpp"
#include "src/model/solution.hpp"
#include "src/model/validate.hpp"
#include "src/sectors/sectors.hpp"
#include "src/sim/generators.hpp"
#include "src/sim/rng.hpp"

namespace bench_util = sectorpack::bench_util;
namespace shard = sectorpack::shard;
namespace model = sectorpack::model;
namespace geom = sectorpack::geom;
namespace sim = sectorpack::sim;
namespace core = sectorpack::core;

namespace {

model::Instance random_instance(std::uint64_t seed, std::size_t n,
                                std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(0.5, 100.0),
                         static_cast<double>(rng.uniform_int(1, 4)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    b.add_antenna(rng.uniform(0.4, 1.5), rng.uniform(25.0, 90.0),
                  static_cast<double>(rng.uniform_int(30, 120)));
  }
  return b.build();
}

}  // namespace

TEST(Shard, FeasibleAcrossShapes) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const model::Instance inst =
        random_instance(seed, 400 + 150 * seed, 2 + seed);
    shard::ShardConfig config;
    config.annuli = seed % 2 == 0 ? 1 : 3;
    shard::ShardStats stats;
    const model::Solution sol = shard::solve(inst, config, &stats);
    const auto report = model::validate(inst, sol);
    EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                           << (report.errors.empty() ? "" : report.errors[0]);
    EXPECT_GE(stats.shards, 1u);
  }
}

TEST(Shard, Deterministic) {
  const model::Instance inst = random_instance(11, 1200, 5);
  shard::ShardConfig config;
  config.annuli = 2;
  const model::Solution a = shard::solve(inst, config);
  const model::Solution b = shard::solve(inst, config);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.assign, b.assign);
}

// With a single wedge and a single band there is exactly one shard holding
// the whole instance, so sharding reduces to the plain sectors greedy with
// the same oracle (repair has no seams to work on).
TEST(Shard, SingleShardMatchesPlainGreedy) {
  const model::Instance inst = random_instance(21, 800, 4);
  shard::ShardConfig config;
  config.wedges = 1;
  config.annuli = 1;
  shard::ShardStats stats;
  const model::Solution sharded = shard::solve(inst, config, &stats);
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.repair_moved, 0u);

  sectorpack::sectors::GreedyConfig gc;
  gc.oracle = config.oracle;
  const model::Solution plain = sectorpack::sectors::solve_greedy(inst, gc);
  EXPECT_EQ(sharded.alpha, plain.alpha);
  EXPECT_EQ(sharded.assign, plain.assign);
}

// Seam repair only ever adds assignments: served demand with repair enabled
// (default) is >= served demand when the repair zone is forced empty.
TEST(Shard, RepairNeverDegrades) {
  for (std::uint64_t seed = 30; seed < 34; ++seed) {
    const model::Instance inst = random_instance(seed, 1500, 6);
    shard::ShardConfig config;
    shard::ShardStats stats;
    const model::Solution repaired = shard::solve(inst, config, &stats);

    config.seam_eps = 0.0;  // no seam zone: merge only
    const model::Solution merged = shard::solve(inst, config);
    EXPECT_GE(model::served_demand(inst, repaired),
              model::served_demand(inst, merged))
        << "seed " << seed;
    const auto served_count = [&](const model::Solution& s) {
      std::size_t c = 0;
      for (auto a : s.assign) c += a != model::kUnserved;
      return c;
    };
    EXPECT_EQ(served_count(repaired), served_count(merged) + stats.repair_moved)
        << "seed " << seed;
  }
}

TEST(Shard, PreExpiredDeadlineReturnsFeasibleBudgetExhausted) {
  const model::Instance inst = random_instance(41, 300, 3);
  shard::ShardConfig config;
  config.solve.deadline = core::Deadline::after(0.0);
  const model::Solution sol = shard::solve(inst, config);
  EXPECT_EQ(sol.status, model::SolveStatus::kBudgetExhausted);
  const auto report = model::validate(inst, sol);
  EXPECT_TRUE(report.ok);
}

// Regression: shard's per-slice deadlines used to snapshot the global
// budget without sharing its cancel flag, so a drain/SIGINT mid-solve let
// in-flight shard sub-solves run out their full slices. after_at_most now
// registers slices as children of the global deadline; a mid-solve
// cancel() must stop the whole sharded solve promptly.
TEST(Shard, MidSolveCancelStopsSlicesPromptly) {
  // Big uniform instance + exact per-move oracle: ~1s of shard work on a
  // typical dev box, enough runway to cancel mid-flight.
  sim::Rng rng(61);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < 40000; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(0.5, 100.0),
                         static_cast<double>(rng.uniform_int(1, 4)));
  }
  for (std::size_t j = 0; j < 12; ++j) {
    b.add_antenna(rng.uniform(0.4, 1.5), rng.uniform(25.0, 90.0), 4000.0);
  }
  const model::Instance inst = b.build();
  shard::ShardConfig config;
  config.wedges = 4;
  config.annuli = 2;
  config.oracle = sectorpack::knapsack::Oracle::exact();

  // Calibrate: how long does the uncancelled solve take here? Skip on
  // machines where it is too fast to cancel mid-flight reliably.
  bench_util::Timer timer;
  (void)shard::solve(inst, config);
  const double full_ms = timer.elapsed_ms();
  if (full_ms < 200.0) {
    GTEST_SKIP() << "uncancelled solve too fast to probe (" << full_ms
                 << " ms)";
  }

  // A generous budget that would never lapse on its own; the cancel is the
  // only thing that can stop the solve early.
  const core::Deadline global = core::Deadline::after(3600.0);
  config.solve.deadline = global;
  std::thread canceller([&global, full_ms] {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(full_ms / 10.0)));
    global.cancel();
  });
  timer.reset();
  const model::Solution sol = shard::solve(inst, config);
  const double cancelled_ms = timer.elapsed_ms();
  canceller.join();

  EXPECT_EQ(sol.status, model::SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(model::validate(inst, sol).ok);
  // Prompt: well under the uncancelled runtime (10% trigger + one check
  // interval; 75% leaves slack for noisy CI).
  EXPECT_LT(cancelled_ms, 0.75 * full_ms)
      << "cancel did not reach in-flight shard slices";
}

TEST(Shard, StatsCountRepairedCustomers) {
  // Antennas with ranges spanning the disk and many wedges force seams;
  // just assert the counters are self-consistent and repair stays feasible.
  const model::Instance inst = random_instance(51, 2000, 8);
  shard::ShardConfig config;
  config.wedges = 16;
  shard::ShardStats stats;
  const model::Solution sol = shard::solve(inst, config, &stats);
  EXPECT_GE(stats.shards, 1u);
  EXPECT_LE(stats.shards, 16u);
  const auto report = model::validate(inst, sol);
  EXPECT_TRUE(report.ok);
}
