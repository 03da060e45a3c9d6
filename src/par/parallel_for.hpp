#pragma once
// A blocking data-parallel loop over an index range, built on ThreadPool.
//
// parallel_for(n, grain, body): invokes body(begin, end) over a partition of
// [0, n) into chunks of at least `grain` indices. Falls back to one inline
// call when the pool has a single worker or the range is below the grain.
// Exceptions thrown by bodies are captured and the first one is rethrown on
// the calling thread after all chunks finish.

#include <cstddef>
#include <functional>

#include "src/par/thread_pool.hpp"

namespace sectorpack::par {

using RangeBody = std::function<void(std::size_t begin, std::size_t end)>;

/// Partition [0, n) into chunks of >= grain and run `body` on each, blocking
/// until all complete. `pool` defaults to ThreadPool::global().
void parallel_for(std::size_t n, std::size_t grain, const RangeBody& body,
                  ThreadPool* pool = nullptr);

/// Chunk layout used by parallel_for: chunk c covers
/// [c * size, min((c+1) * size, n)).
struct ChunkPlan {
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;
};
[[nodiscard]] ChunkPlan plan_chunks(std::size_t n, std::size_t grain,
                                    unsigned workers);

}  // namespace sectorpack::par
