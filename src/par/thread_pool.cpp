#include "src/par/thread_pool.hpp"

#include <utility>

#include "src/obs/metrics.hpp"

namespace sectorpack::par {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    core::LockGuard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    core::LockGuard lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      core::UniqueLock lock(mu_);
      cv_.wait(lock, [this] {
        mu_.assert_held();  // CondVar::wait re-acquires mu_ around us
        return stopping_ || !tasks_.empty();
      });
      // Drain before exiting: a task queued after stopping_ was set (by a
      // task still running on some worker) must run too. That worker keeps
      // looping, so it takes the task even if every other worker is gone.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  // One store per call, not one at creation: obs may be enabled or reset
  // after the pool exists, and the gauge must still report it.
  static const obs::Gauge g_size = obs::gauge("par.pool.size");
  g_size.set(static_cast<double>(pool.size()));
  return pool;
}

}  // namespace sectorpack::par
