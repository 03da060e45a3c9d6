#pragma once
// A bounded, closeable multi-producer/multi-consumer queue.
//
// This is the admission-control primitive of the batch request engine
// (src/srv/): producers block once `capacity` items are queued, so reading
// a million-line request file cannot balloon memory -- backpressure
// propagates to the reader. Consumers block while the queue is empty and
// drain remaining items after close(); once the queue is both closed and
// empty, pop() returns false and consumers exit.
//
// The srv engine pushes requests here and runs `--jobs` pump threads that
// each pop until the stream ends.

#include <chrono>
#include <cstddef>
#include <deque>
#include <utility>

#include "src/core/sync.hpp"

namespace sectorpack::par {

template <typename T>
class BoundedQueue {
 public:
  /// A zero capacity is promoted to 1: a queue nothing can ever enter would
  /// deadlock the first producer against the closed-check in pop().
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room (or the queue is closed), then enqueue.
  /// Returns false -- and drops `value` -- when the queue was closed.
  bool push(T value) SP_EXCLUDES(mu_) {
    core::UniqueLock lock(mu_);
    not_full_.wait(lock, [&] {
      mu_.assert_held();  // CondVar::wait re-acquires mu_ around us
      return items_.size() < capacity_ || closed_;
    });
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// As push(), but gives up after `timeout` so the producer can poll an
  /// interrupt flag between attempts. Returns false on timeout or close
  /// (check closed() to distinguish; `value` is untouched on failure).
  template <typename Rep, typename Period>
  bool try_push_for(T& value, std::chrono::duration<Rep, Period> timeout)
      SP_EXCLUDES(mu_) {
    core::UniqueLock lock(mu_);
    if (!not_full_.wait_for(lock, timeout, [&] {
          mu_.assert_held();  // CondVar::wait re-acquires mu_ around us
          return items_.size() < capacity_ || closed_;
        })) {
      return false;
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available and pop it into `out`. Returns false
  /// when the queue is closed and fully drained (end of stream).
  bool pop(T& out) SP_EXCLUDES(mu_) {
    core::UniqueLock lock(mu_);
    not_empty_.wait(lock, [&] {
      mu_.assert_held();  // CondVar::wait re-acquires mu_ around us
      return !items_.empty() || closed_;
    });
    if (items_.empty()) return false;  // closed and drained
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// End of stream: producers fail fast, consumers drain what is queued and
  /// then see pop() == false. Idempotent.
  void close() SP_EXCLUDES(mu_) {
    {
      core::LockGuard lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const SP_EXCLUDES(mu_) {
    core::LockGuard lock(mu_);
    return closed_;
  }

  /// Instantaneous depth (for gauges; racy by nature, exact under the lock).
  [[nodiscard]] std::size_t size() const SP_EXCLUDES(mu_) {
    core::LockGuard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable core::Mutex mu_;
  core::CondVar not_full_;
  core::CondVar not_empty_;
  std::deque<T> items_ SP_GUARDED_BY(mu_);
  const std::size_t capacity_;
  bool closed_ SP_GUARDED_BY(mu_) = false;
};

}  // namespace sectorpack::par
