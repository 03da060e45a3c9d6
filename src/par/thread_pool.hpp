#pragma once
// A small fixed-size worker pool over one locked FIFO queue.
// Parallelism in this library is optional and structural: every parallel
// entry point has an identical-result serial path (used when the pool has
// <= 1 worker), so solver output never depends on thread count or
// scheduling.
//
// Queue design. One deque under one mutex, with one condition variable for
// the sleep/wake protocol. Every task the library submits is coarse -- a
// batch-engine pump per --jobs worker, a race lane, a shard chunk -- so a
// call submits a handful of tasks that each run for milliseconds or more,
// and the shared lock is rarely contended.

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/core/sync.hpp"

namespace sectorpack::par {

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);

  /// Drains: blocks until all submitted tasks have run, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw (wrap and capture exceptions at
  /// the call site; parallel_for does this for its bodies).
  void submit(std::function<void()> task);

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Process-wide pool, created on first use with hardware_concurrency
  /// workers. Every call sets the `par.pool.size` gauge to its size.
  static ThreadPool& global();

 private:
  void worker_loop();

  core::Mutex mu_;
  core::CondVar cv_;
  std::deque<std::function<void()>> tasks_ SP_GUARDED_BY(mu_);
  bool stopping_ SP_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace sectorpack::par
