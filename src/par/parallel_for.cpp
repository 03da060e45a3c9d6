#include "src/par/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "src/core/sync.hpp"

namespace sectorpack::par {

unsigned thread_count(unsigned requested) {
  if (requested != 0) return requested;
  return std::max(std::thread::hardware_concurrency(), 1u);
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  // sp-lint: allow(unannotated-guard) block-local mutex: attributes cannot attach to locals; the field comment below names it
  core::Mutex mu;
  std::exception_ptr first_error;  // guarded by mu
  const auto work = [&] {
    // sp-sync: the counter only hands out indices; what a body writes
    // reaches the caller through the joins below, not through it.
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        core::LockGuard lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  {
    const std::size_t width = std::min<std::size_t>(n, thread_count(threads));
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < width; ++t) helpers.emplace_back(work);
    work();
  }  // joins the helpers
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace sectorpack::par
