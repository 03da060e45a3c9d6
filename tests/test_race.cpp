// Portfolio racing: determinism, warm-start exchange, cancel-on-winner,
// honest status composition, and degradation -- the contracts documented
// in src/race/race.hpp and docs/performance.md "Portfolio racing".

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/bench_util/timer.hpp"
#include "src/sectorpack.hpp"

using namespace sectorpack;

namespace {

model::Instance random_instance(std::uint64_t seed, std::size_t n,
                                std::size_t k) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(0.5, 90.0),
                         static_cast<double>(rng.uniform_int(1, 6)));
  }
  for (std::size_t j = 0; j < k; ++j) {
    b.add_antenna(rng.uniform(0.5, 1.4), rng.uniform(30.0, 95.0),
                  static_cast<double>(rng.uniform_int(20, 80)));
  }
  return b.build();
}

/// Every customer inside one narrow arc, one wide-beam antenna with
/// capacity for all of them: local search provably reaches
/// bounds::trivial_bound (serve everyone), which makes the proved-optimal
/// early exit deterministic for the cancel-on-winner tests.
model::Instance easy_saturating_instance(std::size_t n) {
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    const double theta = 0.05 + 0.2 * static_cast<double>(i) /
                                    static_cast<double>(n);
    b.add_customer_polar(theta, 5.0 + static_cast<double>(i % 40), 1.0);
  }
  b.add_identical_antennas(1, /*rho=*/1.0, /*range=*/60.0,
                           /*capacity=*/static_cast<double>(n));
  return b.build();
}

}  // namespace

// ---------------------------------------------------------------------------
// Portfolio parsing and validation.

TEST(RaceConfig, ParsePortfolioAcceptsUnderscores) {
  const std::vector<std::string> p =
      race::parse_portfolio("greedy,local_search,annealing");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[1], "local-search");
}

TEST(RaceConfig, ParsePortfolioRejectsBadSpecs) {
  EXPECT_THROW((void)race::parse_portfolio(""), std::invalid_argument);
  EXPECT_THROW((void)race::parse_portfolio("greedy,"), std::invalid_argument);
  EXPECT_THROW((void)race::parse_portfolio("qaoa"), std::invalid_argument);
  EXPECT_THROW((void)race::parse_portfolio("greedy,greedy"),
               std::invalid_argument);
  EXPECT_THROW((void)race::parse_portfolio("greedy,race"),
               std::invalid_argument);
}

TEST(RaceConfig, SolveRejectsBadPortfolios) {
  const model::Instance inst = random_instance(1, 30, 2);
  race::RaceConfig config;
  config.portfolio = {};
  EXPECT_THROW((void)race::solve(inst, config), std::invalid_argument);
  config.portfolio = {"greedy", "nope"};
  EXPECT_THROW((void)race::solve(inst, config), std::invalid_argument);
  config.portfolio = {"greedy", "greedy"};
  EXPECT_THROW((void)race::solve(inst, config), std::invalid_argument);
  config.portfolio = {"race"};
  EXPECT_THROW((void)race::solve(inst, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Degradation.

TEST(Race, PreExpiredDeadlineDegradesLikeEveryFamily) {
  const model::Instance inst = random_instance(2, 80, 3);
  race::RaceConfig config;
  config.solve.deadline = core::Deadline::after(0.0);
  race::RaceStats stats;
  const model::Solution sol = race::solve(inst, config, &stats);
  EXPECT_EQ(sol.status, model::SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(model::validate(inst, sol).ok);
  EXPECT_TRUE(stats.winner.empty());
}

// ---------------------------------------------------------------------------
// Quality and determinism.

TEST(Race, NeverWorseThanAnySingleFamilyUnlimitedBudget) {
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    const model::Instance inst = random_instance(seed, 60 + 20 * seed, 3);
    race::RaceConfig config;  // default greedy,local-search,annealing
    config.iterations = 300;
    race::RaceStats stats;
    const model::Solution raced = race::solve(inst, config, &stats);
    EXPECT_EQ(raced.status, model::SolveStatus::kComplete) << "seed " << seed;
    EXPECT_TRUE(verify::verify_solution(inst, raced).ok) << "seed " << seed;
    const double race_value = model::served_value(inst, raced);

    sectors::GreedyConfig gc;
    EXPECT_GE(race_value + 1e-9,
              model::served_value(inst, sectors::solve_greedy(inst, gc)))
        << "seed " << seed;
    EXPECT_GE(race_value + 1e-9,
              model::served_value(inst, sectors::solve_local_search(inst)))
        << "seed " << seed;
    sectors::AnnealConfig ac;
    ac.seed = config.seed;
    ac.iterations = static_cast<std::size_t>(config.iterations);
    EXPECT_GE(race_value + 1e-9,
              model::served_value(inst, sectors::solve_annealing(inst, ac)))
        << "seed " << seed;
  }
}

TEST(Race, ByteIdenticalAcrossRepeatsUnlimitedBudget) {
  const model::Instance inst = random_instance(20, 120, 4);
  race::RaceConfig config;
  config.iterations = 200;
  race::RaceStats first_stats;
  const model::Solution first = race::solve(inst, config, &first_stats);
  for (int rep = 0; rep < 3; ++rep) {
    race::RaceStats stats;
    const model::Solution again = race::solve(inst, config, &stats);
    EXPECT_EQ(model::to_string(first), model::to_string(again))
        << "rep " << rep;
    EXPECT_EQ(first_stats.winner, stats.winner) << "rep " << rep;
  }
}

TEST(Race, WarmStartExchangeSeedsFromGreedy) {
  const model::Instance inst = random_instance(30, 150, 4);
  race::RaceConfig config;  // greedy + two seedable families
  config.iterations = 100;
  race::RaceStats stats;
  const model::Solution sol = race::solve(inst, config, &stats);
  EXPECT_TRUE(model::validate(inst, sol).ok);
  // Both local-search and annealing adopted greedy's seed (they both
  // expose run_seeded in the registry).
  EXPECT_EQ(stats.exchange_adoptions, 2u);
  // Warm-starting from the shared greedy seed is byte-identical to each
  // family's own cold start, so the race's answer equals the deterministic
  // best-of over standalone runs -- that is what
  // NeverWorseThanAnySingleFamily pins; here pin the lane values directly.
  for (const race::LaneOutcome& lane : stats.lanes) {
    EXPECT_TRUE(lane.ran) << lane.family;
    EXPECT_TRUE(lane.error.empty()) << lane.family << ": " << lane.error;
  }
}

TEST(Race, SingleFamilyPortfolioMatchesStandalone) {
  const model::Instance inst = random_instance(40, 100, 3);
  race::RaceConfig config;
  config.portfolio = {"local-search"};
  const model::Solution raced = race::solve(inst, config);
  const model::Solution direct = sectors::solve_local_search(inst);
  EXPECT_EQ(model::to_string(raced), model::to_string(direct));
}

// ---------------------------------------------------------------------------
// Cancel-on-winner.

TEST(Race, CancelOnWinnerStopsLosersPromptly) {
  // No greedy lane: phase B races local-search (fast, provably optimal on
  // this instance) against annealing armed with a huge iteration budget.
  // Without cancel-on-winner the race would take annealing's full runtime.
  const model::Instance inst = easy_saturating_instance(600);
  race::RaceConfig config;
  config.portfolio = {"local-search", "annealing"};
  config.iterations = 5000000;  // hours of annealing if never cancelled

  // The solution/winner are deterministic, but whether the losing lane was
  // *in flight* at declare time depends on thread startup: on a loaded
  // machine local-search can finish before the annealing worker picks up
  // its task, leaving cancelled == 0. Retry until a run actually catches
  // the loser mid-flight (virtually always the first attempt).
  race::RaceStats stats;
  model::Solution sol;
  double race_ms = 0.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const bench_util::Timer timer;
    sol = race::solve(inst, config, &stats);
    race_ms = timer.elapsed_ms();
    if (stats.cancelled >= 1) break;
  }

  EXPECT_EQ(stats.winner, "local-search");
  EXPECT_TRUE(stats.proved_optimal);
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_EQ(sol.status, model::SolveStatus::kComplete);
  EXPECT_TRUE(verify::verify_solution(inst, sol).ok);
  EXPECT_NEAR(model::served_value(inst, sol), bounds::trivial_bound(inst),
              1e-9);
  // The annealing loser was truncated, not run to completion.
  for (const race::LaneOutcome& lane : stats.lanes) {
    if (lane.family == "annealing") {
      EXPECT_EQ(lane.status, model::SolveStatus::kBudgetExhausted);
    }
  }
  // Promptness backstop: minutes of annealing must collapse to seconds.
  // (One annealing iteration re-assigns the whole instance, so even a few
  // thousand iterations would blow far past this.)
  EXPECT_LT(race_ms, 60000.0);
}

TEST(Race, GreedyProvingOptimalityShortCircuitsPhaseB) {
  // Greedy alone serves everything here, so phase A proves optimality and
  // the other lanes are never launched (skipped, not cancelled).
  const model::Instance inst = easy_saturating_instance(50);
  race::RaceConfig config;
  config.iterations = 5000000;
  race::RaceStats stats;
  const bench_util::Timer timer;
  const model::Solution sol = race::solve(inst, config, &stats);
  EXPECT_EQ(stats.winner, "greedy");
  EXPECT_TRUE(stats.proved_optimal);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(sol.status, model::SolveStatus::kComplete);
  EXPECT_LT(timer.elapsed_ms(), 60000.0);
  for (const race::LaneOutcome& lane : stats.lanes) {
    if (lane.family != "greedy") {
      EXPECT_FALSE(lane.ran) << lane.family;
    }
  }
}

TEST(Race, ExternalCancelStopsTheWholeField) {
  // The drain scenario: the caller's cap is cancelled before the race
  // starts consuming it -- every lane must come back budget-exhausted
  // almost immediately, through the cap -> hub -> lane deadline chain.
  const model::Instance inst = random_instance(50, 400, 4);
  race::RaceConfig config;
  config.iterations = 5000000;
  const core::Deadline cap = core::Deadline::cancellable();
  config.solve.deadline = cap;
  cap.cancel();
  const bench_util::Timer timer;
  const model::Solution sol = race::solve(inst, config);
  EXPECT_EQ(sol.status, model::SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(model::validate(inst, sol).ok);
  EXPECT_LT(timer.elapsed_ms(), 60000.0);
}

// ---------------------------------------------------------------------------
// Engine integration.

TEST(Race, RunSolverDispatchesRaceWithPortfolioKey) {
  const model::Instance inst = random_instance(60, 80, 3);
  srv::SolverKey key;
  key.family = "race";
  key.portfolio = "greedy,local_search";
  key.iterations = 100;
  const model::Solution sol = srv::run_solver(inst, key, {});
  EXPECT_TRUE(verify::verify_solution(inst, sol).ok);
  EXPECT_EQ(sol.status, model::SolveStatus::kComplete);

  srv::SolverKey bad = key;
  bad.portfolio = "greedy,qaoa";
  EXPECT_THROW((void)srv::run_solver(inst, bad, {}), std::invalid_argument);
}

TEST(Race, MetricsCountWinnerAndExchange) {
  obs::set_enabled(true);
  obs::reset();
  const model::Instance inst = easy_saturating_instance(600);
  race::RaceConfig config;
  config.portfolio = {"local-search", "annealing"};
  config.iterations = 5000000;
  // Counters accumulate across repeats; retry until one run catches the
  // losing lane in flight (see CancelOnWinnerStopsLosersPromptly).
  race::RaceStats stats;
  for (int attempt = 0; attempt < 10; ++attempt) {
    (void)race::solve(inst, config, &stats);
    if (stats.cancelled >= 1) break;
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_GE(snap.counter("race.winner.local-search"), 1u);
  EXPECT_GE(snap.counter("race.cancelled"), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan gate runs this binary; see check.sh --tsan).

TEST(Race, RepeatedConcurrentRacesAreClean) {
  const model::Instance inst = random_instance(70, 200, 4);
  race::RaceConfig config;
  config.iterations = 50;
  std::string first;
  for (int rep = 0; rep < 4; ++rep) {
    race::RaceStats stats;
    const model::Solution sol = race::solve(inst, config, &stats);
    EXPECT_TRUE(model::validate(inst, sol).ok);
    const std::string text = model::to_string(sol);
    if (rep == 0) {
      first = text;
    } else {
      EXPECT_EQ(first, text) << "rep " << rep;
    }
  }
}
