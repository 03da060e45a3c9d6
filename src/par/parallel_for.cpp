#include "src/par/parallel_for.hpp"

#include <algorithm>
#include <exception>

#include "src/core/sync.hpp"
#include "src/obs/metrics.hpp"

namespace sectorpack::par {

ChunkPlan plan_chunks(std::size_t n, std::size_t grain, unsigned workers) {
  ChunkPlan plan;
  if (n == 0) return plan;
  grain = std::max<std::size_t>(grain, 1);
  if (workers <= 1 || n <= grain) {
    plan.chunk_size = n;
    plan.num_chunks = 1;
    return plan;
  }
  // Aim for ~4 chunks per worker for load balance, floor at the grain.
  const std::size_t target = std::size_t{workers} * 4;
  plan.chunk_size = std::max(grain, (n + target - 1) / target);
  plan.num_chunks = (n + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

void parallel_for(std::size_t n, std::size_t grain, const RangeBody& body,
                  ThreadPool* pool) {
  static const obs::Counter c_calls = obs::counter("par.parallel_for_calls");
  static const obs::Counter c_chunks = obs::counter("par.chunks_dispatched");
  static const obs::Counter c_inline = obs::counter("par.inline_fallbacks");
  if (pool == nullptr) pool = &ThreadPool::global();
  const ChunkPlan plan = plan_chunks(n, grain, pool->size());
  c_calls.inc();
  if (plan.num_chunks <= 1) {
    c_inline.inc();
    if (n > 0) body(0, n);
    return;
  }
  c_chunks.add(plan.num_chunks);

  // sp-lint: allow(unannotated-guard) block-local mutex: attributes cannot attach to locals; the per-field comments below name it
  core::Mutex mu;
  core::CondVar cv;
  std::size_t done = 0;           // guarded by mu
  std::exception_ptr first_error;  // guarded by mu

  for (std::size_t c = 0; c < plan.num_chunks; ++c) {
    pool->submit([&, c] {
      const std::size_t begin = c * plan.chunk_size;
      const std::size_t end = std::min(begin + plan.chunk_size, n);
      try {
        body(begin, end);
      } catch (...) {
        core::LockGuard lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
      {
        // Notify while holding the lock: the waiter's stack frame owns cv
        // and destroys it the moment its predicate holds and it reacquires
        // mu, so signalling after the unlock races that destruction (TSan:
        // pthread_cond_destroy vs pthread_cond_signal).
        core::LockGuard lock(mu);
        ++done;
        cv.notify_one();
      }
    });
  }

  core::UniqueLock lock(mu);
  cv.wait(lock, [&] {
    mu.assert_held();  // CondVar::wait re-acquires mu around us
    return done == plan.num_chunks;
  });
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sectorpack::par
