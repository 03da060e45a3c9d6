// Deadline-aware solving: the cooperative cancellation token itself, and
// the graceful-degradation contract of every solver family -- an expired
// budget returns the current feasible incumbent with status
// kBudgetExhausted instead of throwing or running to completion.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "src/bench_util/timer.hpp"
#include "src/bounds/dinic.hpp"
#include "src/sectorpack.hpp"

using namespace sectorpack;

namespace {

// A deadline that is already over: every solver must notice it at its first
// check point and degrade immediately.
core::SolveOptions expired_options() {
  core::SolveOptions opts;
  opts.deadline = core::Deadline::after(0.0);
  return opts;
}

model::Instance medium_instance(std::uint64_t seed, bool weighted = false) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (int i = 0; i < 60; ++i) {
    const double theta = rng.uniform(0.0, geom::kTwoPi);
    const double demand = static_cast<double>(rng.uniform_int(1, 9));
    if (weighted) {
      b.add_weighted_customer_polar(
          theta, rng.uniform(1.0, 9.0), demand,
          static_cast<double>(rng.uniform_int(1, 30)));
    } else {
      b.add_customer_polar(theta, rng.uniform(1.0, 9.0), demand);
    }
  }
  b.add_identical_antennas(4, 1.2, 10.0, 40.0);
  return b.build();
}

// Every customer in range of every antenna: legal input for the
// angles-only solvers.
model::Instance angles_only_instance(std::uint64_t seed) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (int i = 0; i < 6; ++i) {
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi), 5.0,
                         static_cast<double>(rng.uniform_int(1, 5)));
  }
  b.add_identical_antennas(2, 1.0, 10.0, 8.0);
  return b.build();
}

void expect_exhausted_and_feasible(const model::Instance& inst,
                                   const model::Solution& sol,
                                   const char* which) {
  EXPECT_EQ(sol.status, model::SolveStatus::kBudgetExhausted) << which;
  EXPECT_TRUE(model::is_feasible(inst, sol)) << which;
}

}  // namespace

// ---------------------------------------------------------------------------
// The token itself.

TEST(Deadline, DefaultIsUnlimited) {
  const core::Deadline d;
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_seconds(),
            std::numeric_limits<double>::infinity());
  d.cancel();  // no-op on unlimited
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(core::Deadline::never().limited());
}

TEST(Deadline, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(core::Deadline::after(0.0).expired());
  EXPECT_TRUE(core::Deadline::after(-5.0).expired());
  EXPECT_EQ(core::Deadline::after(0.0).remaining_seconds(), 0.0);
}

TEST(Deadline, GenerousBudgetIsNotExpired) {
  const core::Deadline d = core::Deadline::after(3600.0);
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 0.0);
  EXPECT_LE(d.remaining_seconds(), 3600.0);
}

TEST(Deadline, InfiniteBudgetNeverLapsesButCancels) {
  const core::Deadline d =
      core::Deadline::after(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  d.cancel();
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, NanBudgetThrows) {
  EXPECT_THROW(
      (void)core::Deadline::after(std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(Deadline, CopiesShareTheCancelFlag) {
  const core::Deadline a = core::Deadline::cancellable();
  const core::Deadline b = a;  // NOLINT(performance-unnecessary-copy-*)
  EXPECT_FALSE(b.expired());
  a.cancel();
  EXPECT_TRUE(b.expired());
  EXPECT_EQ(b.remaining_seconds(), 0.0);
}

TEST(Deadline, ShortBudgetActuallyLapses) {
  const core::Deadline d = core::Deadline::after(0.01);
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(200);
  while (!d.expired() && std::chrono::steady_clock::now() < until) {
  }
  EXPECT_TRUE(d.expired());  // latches
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, SolveStatusHelpers) {
  EXPECT_STREQ(model::to_string(model::SolveStatus::kComplete), "complete");
  EXPECT_STREQ(model::to_string(model::SolveStatus::kBudgetExhausted),
               "budget_exhausted");
  EXPECT_EQ(model::worst_of(model::SolveStatus::kComplete,
                            model::SolveStatus::kComplete),
            model::SolveStatus::kComplete);
  EXPECT_EQ(model::worst_of(model::SolveStatus::kComplete,
                            model::SolveStatus::kBudgetExhausted),
            model::SolveStatus::kBudgetExhausted);
  EXPECT_EQ(model::worst_of(model::SolveStatus::kBudgetExhausted,
                            model::SolveStatus::kComplete),
            model::SolveStatus::kBudgetExhausted);
  EXPECT_EQ(model::worst_of(model::SolveStatus::kBudgetExhausted,
                            model::SolveStatus::kBudgetExhausted),
            model::SolveStatus::kBudgetExhausted);
  // worst_of is a max over the explicit severity order, not a special-case
  // on kBudgetExhausted: a corrupt out-of-range byte ranks above every
  // defined status and stays sticky instead of laundering into kComplete.
  EXPECT_LT(model::severity(model::SolveStatus::kComplete),
            model::severity(model::SolveStatus::kBudgetExhausted));
  const auto corrupt = static_cast<model::SolveStatus>(200);
  EXPECT_EQ(model::severity(corrupt), 255u);
  EXPECT_EQ(model::worst_of(corrupt, model::SolveStatus::kBudgetExhausted),
            corrupt);
}

TEST(Deadline, AfterAtMostClampsUnderTheCap) {
  // No own budget + unlimited cap: cancellable but never lapses.
  const core::Deadline free =
      core::Deadline::after_at_most(-1.0, core::Deadline::never());
  EXPECT_TRUE(free.limited());
  EXPECT_FALSE(free.expired());
  EXPECT_TRUE(std::isinf(free.remaining_seconds()));
  free.cancel();
  EXPECT_TRUE(free.expired());

  // NaN means "no own budget" here (requests omit the field), unlike
  // Deadline::after which rejects NaN as a caller bug.
  const core::Deadline nan_budget = core::Deadline::after_at_most(
      std::numeric_limits<double>::quiet_NaN(), core::Deadline::never());
  EXPECT_FALSE(nan_budget.expired());

  // Zero own budget: already expired regardless of the cap.
  EXPECT_TRUE(
      core::Deadline::after_at_most(0.0, core::Deadline::never()).expired());

  // A generous own budget is clamped to the cap's remaining time.
  const core::Deadline cap = core::Deadline::after(0.0);
  EXPECT_TRUE(core::Deadline::after_at_most(3600.0, cap).expired());

  // The clamp registers the child with the cap: a later cancel() of the
  // cap reaches the child immediately (this used to only snapshot the
  // remaining time, leaving e.g. shard slices running through a drain).
  const core::Deadline wide = core::Deadline::after(3600.0);
  const core::Deadline sub = core::Deadline::after_at_most(1800.0, wide);
  EXPECT_FALSE(sub.expired());
  wide.cancel();
  EXPECT_TRUE(sub.expired());
  EXPECT_EQ(sub.remaining_seconds(), 0.0);

  // A small own budget under a large cap keeps the small budget.
  EXPECT_LE(
      core::Deadline::after_at_most(1.0, core::Deadline::after(3600.0))
          .remaining_seconds(),
      1.0);
}

TEST(Deadline, CancelPropagatesThroughAfterAtMostChains) {
  // Grandchildren too: cap -> race hub -> per-lane slice is exactly the
  // portfolio race's deadline tree.
  const core::Deadline cap = core::Deadline::after(3600.0);
  const core::Deadline hub = core::Deadline::after_at_most(-1.0, cap);
  const core::Deadline lane = core::Deadline::after_at_most(1800.0, hub);
  EXPECT_FALSE(lane.expired());
  cap.cancel();
  EXPECT_TRUE(hub.expired());
  EXPECT_TRUE(lane.expired());
}

TEST(Deadline, PropagationIsOneWayParentUnharmed) {
  const core::Deadline cap = core::Deadline::after(3600.0);
  const core::Deadline child = core::Deadline::after_at_most(-1.0, cap);
  const core::Deadline sibling = core::Deadline::after_at_most(-1.0, cap);
  child.cancel();
  EXPECT_TRUE(child.expired());
  EXPECT_FALSE(cap.expired());
  EXPECT_FALSE(sibling.expired());
}

TEST(Deadline, ChildArmedAfterCancelIsBornExpired) {
  const core::Deadline cap = core::Deadline::cancellable();
  cap.cancel();
  EXPECT_TRUE(core::Deadline::after_at_most(-1.0, cap).expired());
  EXPECT_TRUE(core::Deadline::after_at_most(3600.0, cap).expired());
}

TEST(Deadline, CrossThreadCancelReachesChildren) {
  // The drain scenario: one thread holds lane deadlines, another cancels
  // the cap. The child must observe expiry promptly (propagation happens
  // inside cancel(), so after join it is guaranteed, not just prompt).
  const core::Deadline cap = core::Deadline::after(3600.0);
  const core::Deadline lane = core::Deadline::after_at_most(600.0, cap);
  std::thread canceller([&cap] { cap.cancel(); });
  canceller.join();
  EXPECT_TRUE(lane.expired());
}

TEST(Deadline, FlagRootedDeadlineExpiresItsSubtree) {
  // SIGINT's path: the handler only stores the flag, and every deadline
  // under the root reads it at its next check -- nothing pushes a cancel.
  std::atomic<bool> flag{false};
  const core::Deadline root = core::Deadline::cancellable(&flag);
  const core::Deadline hub = core::Deadline::after_at_most(-1.0, root);
  const core::Deadline lane = core::Deadline::after_at_most(600.0, hub);
  std::atomic<bool> clear{false};
  const core::Deadline other = core::Deadline::cancellable(&clear);
  EXPECT_FALSE(lane.expired());
  EXPECT_FALSE(root.expired());

  std::thread handler([&flag] { flag.store(true); });
  handler.join();
  EXPECT_EQ(lane.remaining_seconds(), 0.0);  // read before lane latches
  EXPECT_TRUE(lane.expired());
  EXPECT_TRUE(hub.expired());
  EXPECT_TRUE(root.expired());

  // A root on a clear flag is untouched.
  EXPECT_FALSE(other.expired());
  EXPECT_TRUE(std::isinf(other.remaining_seconds()));
  // A child armed under the flagged root is born expired.
  EXPECT_TRUE(core::Deadline::after_at_most(3600.0, root).expired());
  EXPECT_TRUE(core::Deadline::after_at_most(-1.0, root).expired());
}

TEST(Deadline, DeadChildrenArePruned) {
  // A long-lived cap must not accumulate registry entries for completed
  // sub-solves: arm and drop many children, then one more -- cancel still
  // works and nothing leaks (ASan/LSan in check.sh watch allocation).
  const core::Deadline cap = core::Deadline::after(3600.0);
  for (int i = 0; i < 1000; ++i) {
    (void)core::Deadline::after_at_most(60.0, cap);
  }
  const core::Deadline last = core::Deadline::after_at_most(60.0, cap);
  cap.cancel();
  EXPECT_TRUE(last.expired());
}

TEST(Deadline, HugeFiniteBudgetIsClampedNotOverflowed) {
  // 1e308 seconds of budget used to overflow the nanosecond duration cast
  // and come back already-expired; it must behave as (clamped) unlimited.
  const core::Deadline huge = core::Deadline::after(1e308);
  EXPECT_TRUE(huge.limited());
  EXPECT_FALSE(huge.expired());
  EXPECT_GT(huge.remaining_seconds(), 0.0);
  EXPECT_LE(huge.remaining_seconds(), core::Deadline::kMaxBudgetSeconds);
  huge.cancel();
  EXPECT_TRUE(huge.expired());

  // Just over the clamp threshold: same story, no wraparound.
  const core::Deadline over =
      core::Deadline::after(core::Deadline::kMaxBudgetSeconds * 2.0);
  EXPECT_FALSE(over.expired());

  // Infinity still means "cancellable, no wall clock" (no expiry at all).
  const core::Deadline inf =
      core::Deadline::after(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inf.expired());
  EXPECT_TRUE(std::isinf(inf.remaining_seconds()));
}

TEST(Deadline, AfterAtMostSessionRearming) {
  // The serve loop arms one after_at_most per delta under a session-lifetime
  // cap. Degenerate combinations a long-lived session actually produces:

  // Both unlimited: every per-op deadline is cancellable but never lapses,
  // and arming many of them is independent (no shared flag).
  const core::Deadline no_cap = core::Deadline::never();
  const core::Deadline op1 = core::Deadline::after_at_most(-1.0, no_cap);
  const core::Deadline op2 = core::Deadline::after_at_most(-1.0, no_cap);
  op1.cancel();
  EXPECT_TRUE(op1.expired());
  EXPECT_FALSE(op2.expired());

  // Zero-second op budget under a healthy cap: that op is born expired,
  // the next op armed under the same cap is not (the cap is unharmed).
  const core::Deadline cap = core::Deadline::after(3600.0);
  EXPECT_TRUE(core::Deadline::after_at_most(0.0, cap).expired());
  EXPECT_FALSE(core::Deadline::after_at_most(-1.0, cap).expired());

  // Re-arming under a shrinking cap: each op's budget is clamped to the
  // cap's *remaining* time at arm time, so successive ops never outlive it.
  const core::Deadline short_cap = core::Deadline::after(0.05);
  const core::Deadline early = core::Deadline::after_at_most(3600.0, short_cap);
  EXPECT_LE(early.remaining_seconds(), 0.05 + 1e-3);
  while (!short_cap.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Cap lapsed: a newly armed op with any own budget is already expired.
  EXPECT_TRUE(core::Deadline::after_at_most(3600.0, short_cap).expired());
  EXPECT_TRUE(core::Deadline::after_at_most(-1.0, short_cap).expired());
  // And the earlier op (snapshotted from the same cap) has lapsed with it.
  EXPECT_TRUE(early.expired());

  // A cancelled cap rejects new arms immediately even with wall time left.
  const core::Deadline cancelled_cap = core::Deadline::after(3600.0);
  cancelled_cap.cancel();
  EXPECT_TRUE(
      core::Deadline::after_at_most(-1.0, cancelled_cap).expired());
}

// ---------------------------------------------------------------------------
// Graceful degradation: a pre-expired deadline stops every solver at its
// first check point, and the result is always feasible.

TEST(DeadlineSolvers, SectorsGreedy) {
  const model::Instance inst = medium_instance(1);
  sectors::GreedyConfig config;
  config.solve = expired_options();
  expect_exhausted_and_feasible(inst, sectors::solve_greedy(inst, config),
                                "sectors::solve_greedy");
}

TEST(DeadlineSolvers, SectorsLocalSearch) {
  const model::Instance inst = medium_instance(2);
  sectors::LocalSearchConfig config;
  config.solve = expired_options();
  expect_exhausted_and_feasible(inst,
                                sectors::solve_local_search(inst, config),
                                "sectors::solve_local_search");
}

TEST(DeadlineSolvers, SectorsUniformOrientations) {
  const model::Instance inst = medium_instance(3);
  expect_exhausted_and_feasible(
      inst,
      sectors::solve_uniform_orientations(inst, knapsack::Oracle::exact(),
                                          expired_options()),
      "sectors::solve_uniform_orientations");
}

TEST(DeadlineSolvers, SectorsAnnealing) {
  const model::Instance inst = medium_instance(4);
  sectors::AnnealConfig config;
  config.iterations = 500;
  config.solve = expired_options();
  expect_exhausted_and_feasible(inst, sectors::solve_annealing(inst, config),
                                "sectors::solve_annealing");
}

TEST(DeadlineSolvers, SectorsExact) {
  const model::Instance inst = angles_only_instance(5);
  expect_exhausted_and_feasible(
      inst,
      sectors::solve_exact(inst, /*tuple_limit=*/1u << 20,
                           /*node_limit=*/1u << 26, expired_options()),
      "sectors::solve_exact");
}

TEST(DeadlineSolvers, AnglesCapacitated) {
  const model::Instance inst = angles_only_instance(6);
  expect_exhausted_and_feasible(
      inst,
      angles::solve_capacitated(inst, knapsack::Oracle::exact(),
                                expired_options()),
      "angles::solve_capacitated");
  expect_exhausted_and_feasible(
      inst,
      angles::solve_capacitated_exact(inst, /*node_limit=*/1u << 26,
                                      expired_options()),
      "angles::solve_capacitated_exact");
}

TEST(DeadlineSolvers, AssignFamily) {
  const model::Instance inst = medium_instance(7);
  const std::vector<double> alphas(inst.num_antennas(), 0.5);
  expect_exhausted_and_feasible(
      inst, assign::solve_greedy(inst, alphas, expired_options()),
      "assign::solve_greedy");
  expect_exhausted_and_feasible(
      inst,
      assign::solve_successive(inst, alphas, knapsack::Oracle::exact(),
                               expired_options()),
      "assign::solve_successive");
  expect_exhausted_and_feasible(
      inst,
      assign::solve_exact(inst, alphas, /*node_limit=*/1u << 26,
                          expired_options()),
      "assign::solve_exact");
  expect_exhausted_and_feasible(
      inst, assign::solve_lp_rounding(inst, alphas, expired_options()),
      "assign::solve_lp_rounding");
}

TEST(DeadlineSolvers, SingleWeightedSweep) {
  // Weighted values force the general window sweep (the uniform-demand fast
  // path always completes and is exempt from the deadline).
  const model::Instance inst = medium_instance(8, /*weighted=*/true);
  single::Config config;
  config.solve = expired_options();
  expect_exhausted_and_feasible(inst, single::solve(inst, config),
                                "single::solve");
}

TEST(DeadlineSolvers, KnapsackBranchBoundKeepsIncumbent) {
  std::vector<knapsack::Item> items(20);
  for (std::size_t i = 0; i < items.size(); ++i) {
    items[i] = {1.0 + static_cast<double>(i % 7),
                1.0 + static_cast<double>((3 * i) % 11)};
  }
  const knapsack::Result r =
      knapsack::solve_bb(items, 30.0, /*node_limit=*/1u << 26,
                         core::Deadline::after(0.0));
  // Stopped at node 0: empty but valid incumbent, and no throw.
  EXPECT_LE(r.weight, 30.0);
  // Without a deadline the same call is optimal and must agree with the
  // reference.
  EXPECT_NEAR(knapsack::solve_bb(items, 30.0).value,
              knapsack::solve_brute_force(items, 30.0).value, 1e-9);
}

TEST(DeadlineSolvers, DinicReportsTruncation) {
  bounds::Dinic flow(4);
  flow.add_edge(0, 1, 5.0);
  flow.add_edge(1, 2, 5.0);
  flow.add_edge(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(flow.max_flow(0, 3, core::Deadline::after(0.0)), 0.0);
  EXPECT_TRUE(flow.truncated());
  // A fresh run without a deadline clears the flag and finds the max flow.
  bounds::Dinic flow2(4);
  flow2.add_edge(0, 1, 5.0);
  flow2.add_edge(1, 2, 5.0);
  flow2.add_edge(2, 3, 5.0);
  EXPECT_DOUBLE_EQ(flow2.max_flow(0, 3), 5.0);
  EXPECT_FALSE(flow2.truncated());
}

TEST(DeadlineSolvers, FlowWindowBoundDegradesToTrivial) {
  const model::Instance inst = medium_instance(9);
  const double degraded = bounds::flow_window_bound(inst, expired_options());
  EXPECT_DOUBLE_EQ(degraded, bounds::trivial_bound(inst));
  // Still a valid upper bound on anything a solver serves.
  EXPECT_GE(degraded + 1e-9,
            model::served_value(inst, sectors::solve_local_search(inst)));
  // And never looser than what the full computation certifies... loose is
  // fine, invalid is not.
  EXPECT_GE(degraded + 1e-9, bounds::flow_window_bound(inst));
}

// ---------------------------------------------------------------------------
// Timing and invariance properties.

TEST(DeadlineSolvers, TinyBudgetReturnsPromptly) {
  // 2000 customers is seconds of annealing work; a 50 ms budget must come
  // back in well under a second (budget + one check interval, with a huge
  // safety margin for slow CI).
  const model::Instance inst =
      sim::uniform_disk_instance(2000, 4, 1.0, 300.0, 11);
  sectors::AnnealConfig config;
  config.iterations = 200000;
  config.solve.deadline = core::Deadline::after(0.05);
  const bench_util::Timer timer;
  const model::Solution sol = sectors::solve_annealing(inst, config);
  EXPECT_LT(timer.elapsed_ms(), 10000.0);
  EXPECT_TRUE(model::is_feasible(inst, sol));
  EXPECT_EQ(sol.status, model::SolveStatus::kBudgetExhausted);
}

TEST(DeadlineSolvers, GenerousBudgetCompletes) {
  const model::Instance inst = medium_instance(12);
  sectors::LocalSearchConfig config;
  config.solve.deadline = core::Deadline::after(3600.0);
  const model::Solution sol = sectors::solve_local_search(inst, config);
  EXPECT_EQ(sol.status, model::SolveStatus::kComplete);
  EXPECT_TRUE(model::is_feasible(inst, sol));
}

TEST(DeadlineSolvers, UnlimitedDeadlineMatchesDefaultBitForBit) {
  const model::Instance inst = medium_instance(13, /*weighted=*/true);
  sectors::LocalSearchConfig with_options;  // default-constructed options
  const model::Solution a = sectors::solve_local_search(inst);
  const model::Solution b = sectors::solve_local_search(inst, with_options);
  EXPECT_EQ(a.assign, b.assign);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(model::to_string(a), model::to_string(b));
}

TEST(DeadlineSolvers, ExpiryBumpsObsCounterAndStatsSnapshot) {
  obs::set_enabled(true);
  obs::reset();
  const model::Instance inst = medium_instance(14);
  sectors::GreedyConfig config;
  config.solve = expired_options();
  (void)sectors::solve_greedy(inst, config);
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_GE(snap.counter("deadline.expired.sectors_greedy"), 1u);
  EXPECT_NE(snap.to_json().find("deadline.expired.sectors_greedy"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Status serialization.

TEST(DeadlineIo, StatusRoundtripsThroughSolutionFiles) {
  const model::Instance inst = medium_instance(15);
  sectors::GreedyConfig config;
  config.solve = expired_options();
  const model::Solution truncated = sectors::solve_greedy(inst, config);
  ASSERT_EQ(truncated.status, model::SolveStatus::kBudgetExhausted);
  const std::string text = model::to_string(truncated);
  EXPECT_NE(text.find("status budget_exhausted"), std::string::npos);
  const model::Solution back = model::solution_from_string(text);
  EXPECT_EQ(back.status, model::SolveStatus::kBudgetExhausted);
  EXPECT_EQ(back.assign, truncated.assign);
}

TEST(DeadlineIo, CompleteSolutionsKeepTheHistoricalFormat) {
  const model::Instance inst = medium_instance(16);
  const model::Solution sol = sectors::solve_greedy(inst);
  ASSERT_EQ(sol.status, model::SolveStatus::kComplete);
  const std::string text = model::to_string(sol);
  EXPECT_EQ(text.find("status"), std::string::npos);
  EXPECT_EQ(model::solution_from_string(text).status,
            model::SolveStatus::kComplete);
}

TEST(DeadlineIo, ExplicitCompleteStatusLineIsAccepted) {
  const model::Solution sol = model::solution_from_string(
      "sectorpack-solution v1\nstatus complete\nalphas 1\n0\nassign 1\n-1\n");
  EXPECT_EQ(sol.status, model::SolveStatus::kComplete);
}

TEST(DeadlineIo, UnknownStatusRejected) {
  EXPECT_THROW((void)model::solution_from_string(
                   "sectorpack-solution v1\nstatus halfway\nalphas 1\n0\n"
                   "assign 1\n-1\n"),
               std::runtime_error);
}
