#include "src/par/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace par = sectorpack::par;

TEST(ParallelFor, TouchesEveryIndexOnce) {
  std::vector<std::atomic<int>> touched(1000);
  par::parallel_for(1000, 4, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  par::parallel_for(0, 2, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesException) {
  // The first exception is rethrown after the join, and the indices after
  // the throwing one still run, inline and across threads.
  for (unsigned threads : {1u, 2u}) {
    std::vector<std::atomic<int>> touched(100);
    EXPECT_THROW(par::parallel_for(100, threads,
                                   [&](std::size_t i) {
                                     touched[i].fetch_add(1);
                                     if (i == 0) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    for (std::size_t i = 0; i < touched.size(); ++i) {
      EXPECT_EQ(touched[i].load(), 1) << threads << " threads, index " << i;
    }
  }
}

TEST(ParallelFor, UsesAtMostThreadsIncludingTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (unsigned threads : {1u, 2u, 3u}) {
    std::mutex mu;
    std::set<std::thread::id> seen;
    // Started threads hold their first index until the caller has run one,
    // so they cannot take the whole range before the caller starts; the
    // sleep keeps the range open long enough for every thread started to
    // take an index.
    std::atomic<bool> caller_ran{false};
    par::parallel_for(64, threads, [&](std::size_t) {
      const std::thread::id self = std::this_thread::get_id();
      {
        std::lock_guard lock(mu);
        seen.insert(self);
      }
      if (self == caller) {
        caller_ran.store(true);
      } else {
        while (!caller_ran.load()) std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    EXPECT_LE(seen.size(), threads) << threads << " threads";
    EXPECT_EQ(seen.count(caller), 1u) << threads << " threads";
  }
}

TEST(ParallelFor, OneThreadRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  par::parallel_for(50, 1, [&](std::size_t i) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
    // Long enough that a thread started by mistake would take an index.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestedCallsComplete) {
  // A fan-out inside a fan-out: every call starts and joins its own
  // threads, so no inner call waits on a worker an outer body holds.
  const std::size_t outer = 4 * std::size_t{par::thread_count(0)};
  std::atomic<std::size_t> inner_runs{0};
  par::parallel_for(outer, 0, [&](std::size_t) {
    par::parallel_for(8, 0, [&](std::size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), outer * 8);
}

TEST(ParallelFor, ThreadCountZeroMeansHardware) {
  EXPECT_EQ(par::thread_count(3), 3u);
  EXPECT_GE(par::thread_count(0), 1u);
}
