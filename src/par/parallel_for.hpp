#pragma once
// A blocking fan-out over an index range: the only parallel primitive.
//
// parallel_for(n, threads, body): calls body(i) exactly once for each i in
// [0, n), on the calling thread plus min(n, threads) - 1 threads that the
// call starts and joins itself (threads == 0 means thread_count(0)). One
// atomic counter hands out the indices in ascending order. With n <= 1 or
// one thread everything runs inline and no thread starts. Exceptions
// thrown by bodies are captured, every index still runs, and the first
// exception is rethrown on the calling thread after the join.
//
// There is no shared pool, so nothing ever waits on a worker someone else
// holds: fan-outs nest (a race lane may shard), and every task -- a race
// lane, a shard sub-solve -- starts promptly on a thread of its own.

#include <cstddef>
#include <functional>

namespace sectorpack::par {

/// `requested`, or std::thread::hardware_concurrency() (at least 1) when it
/// is 0.
[[nodiscard]] unsigned thread_count(unsigned requested);

/// Run body(0) .. body(n - 1) across at most thread_count(threads) threads,
/// the caller included, blocking until all complete.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace sectorpack::par
