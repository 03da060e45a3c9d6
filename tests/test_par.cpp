#include "src/par/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/obs/metrics.hpp"

namespace par = sectorpack::par;
namespace obs = sectorpack::obs;

TEST(ThreadPool, RunsSubmittedTasks) {
  par::ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  for (int t = 0; t < 50; ++t) {
    pool.submit([&] {
      counter.fetch_add(1, std::memory_order_relaxed);
      // Notify under the lock: the waiting test frame owns cv and may
      // destroy it as soon as the predicate holds.
      std::lock_guard lock(mu);
      ++done;
      cv.notify_one();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done == 50; });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeMatchesRequest) {
  par::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    par::ThreadPool pool(1);
    for (int t = 0; t < 20; ++t) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 20);
}

TEST(ChunkPlan, SingleChunkWhenSmallOrSerial) {
  const par::ChunkPlan serial = par::plan_chunks(1000, 1, /*workers=*/1);
  EXPECT_EQ(serial.num_chunks, 1u);
  const par::ChunkPlan tiny = par::plan_chunks(5, 100, 8);
  EXPECT_EQ(tiny.num_chunks, 1u);
  const par::ChunkPlan empty = par::plan_chunks(0, 1, 8);
  EXPECT_EQ(empty.num_chunks, 0u);
}

TEST(ChunkPlan, CoversRangeExactly) {
  for (std::size_t n : {1u, 7u, 100u, 1001u, 4096u}) {
    for (unsigned workers : {1u, 2u, 4u, 16u}) {
      const par::ChunkPlan plan = par::plan_chunks(n, 4, workers);
      if (plan.num_chunks == 0) {
        EXPECT_EQ(n, 0u);
        continue;
      }
      EXPECT_EQ((n + plan.chunk_size - 1) / plan.chunk_size,
                plan.num_chunks);
      EXPECT_GE(plan.chunk_size * plan.num_chunks, n);
      EXPECT_LT(plan.chunk_size * (plan.num_chunks - 1), n);
    }
  }
}

TEST(ParallelFor, TouchesEveryIndexOnce) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  par::parallel_for(
      1000, 1,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) touched[i].fetch_add(1);
      },
      &pool);
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool called = false;
  par::parallel_for(
      0, 1, [&](std::size_t, std::size_t) { called = true; }, &pool);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesException) {
  par::ThreadPool pool(2);
  EXPECT_THROW(
      par::parallel_for(
          100, 1,
          [&](std::size_t b, std::size_t) {
            if (b == 0) throw std::runtime_error("boom");
          },
          &pool),
      std::runtime_error);
}

TEST(ThreadPool, StealsFromLoadedQueues) {
  // Uneven tasks on the shared queue: one task in 16 sleeps, and the other
  // workers must keep taking the rest while it does, or the barrier never
  // opens. The name predates the single queue; what it checks still holds.
  par::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const int total = 64;
  for (int t = 0; t < total; ++t) {
    pool.submit([&, t] {
      if (t % 16 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      counter.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lock(mu);
      ++done;
      cv.notify_one();
    });
  }
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done == total; });
  EXPECT_EQ(counter.load(), total);
}

TEST(ThreadPool, ManySubmittersOneConsumerSet) {
  // External submissions from several threads at once exercise the queue
  // lock and the sleep/wake protocol under contention.
  par::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const int per_thread = 200;
  const int submitters = 4;
  std::vector<std::thread> feeders;
  for (int s = 0; s < submitters; ++s) {
    feeders.emplace_back([&] {
      for (int t = 0; t < per_thread; ++t) {
        pool.submit([&] {
          counter.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(mu);
          ++done;
          cv.notify_one();
        });
      }
    });
  }
  for (std::thread& f : feeders) f.join();
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return done == submitters * per_thread; });
  EXPECT_EQ(counter.load(), submitters * per_thread);
}

TEST(GlobalPool, Available) {
  par::ThreadPool& pool = par::ThreadPool::global();
  EXPECT_GE(pool.size(), 1u);
}

TEST(GlobalPool, SizeGaugeReportsTheGlobalPool) {
  // par.pool.size is the global pool's worker count: a dedicated pool of
  // another size (a batch engine's or a race's) must not overwrite it.
  obs::set_enabled(true);
  obs::reset();
  const unsigned global_size = par::ThreadPool::global().size();
  { par::ThreadPool other(global_size + 1); }
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  obs::reset();
  double gauge = -1.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "par.pool.size") gauge = value;
  }
  EXPECT_EQ(gauge, static_cast<double>(global_size));
}
