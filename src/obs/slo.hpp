#pragma once
// Rolling-window SLO tracking for the batch engine.
//
// Registry histograms answer "over the whole run"; an operator watching a
// long-lived batch needs "over the last W requests": is the deadline
// hit-rate degrading *now*, did tail latency move after a cache flush?
// SloTracker keeps a fixed ring of the last W request outcomes and computes
// window quantiles exactly (nearest-rank over the retained samples), so the
// summary is independent of histogram bucketing.
//
// Thread model: record() is called from engine worker threads and takes one
// short mutex (append to a preallocated ring); summary()/publish() are
// called rarely (drain, export ticks). Unlike the registry's relaxed
// atomics it takes a lock: the per-request cost is one lock around a few
// stores, far below a solve, and a window must see writes from all threads
// in one total order to mean anything.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/sync.hpp"

namespace sectorpack::obs {

class Registry;

/// How a recorded request was disposed of. The kind decides which rollup
/// lines a sample contributes to (see Summary): near-zero cache-hit
/// latencies and rejected requests must not dilute the solve percentiles,
/// and rejected requests must not be invisible to the deadline hit-rate.
enum class SloKind : std::uint8_t {
  kSolve = 0,     // a fresh solve ran (ok or budget_exhausted)
  kCacheHit = 1,  // answered from the result cache, no solve
  kRejected = 2,  // never started (drain / global budget); deadline_ok=false
};

class SloTracker {
 public:
  /// One request outcome inside the window.
  struct Sample {
    double latency_ms = 0.0;
    bool deadline_ok = false;  // finished without exhausting its budget
    SloKind kind = SloKind::kSolve;
  };

  /// Point-in-time rollup of the last `in_window` (<= window) requests.
  ///
  /// Semantics (documented in docs/observability.md "SLO tracker"):
  ///  * p50/p95/p99 are computed over kSolve samples only -- they answer
  ///    "how slow is a solve right now". Cache hits (near-zero latency)
  ///    and rejected requests are excluded so the tail cannot be diluted
  ///    toward zero by a hot cache or a drain storm.
  ///  * deadline_hit_rate is computed over ALL samples: a cache hit counts
  ///    as meeting its deadline, a rejected request counts as missing it.
  ///    It answers "what fraction of admitted requests got a full answer
  ///    in budget".
  ///  * cache_hit_rate = kCacheHit / (kSolve + kCacheHit): the fraction of
  ///    *answered* requests that skipped the solver. Rejected requests are
  ///    excluded from the denominator (they never consulted the cache).
  struct Summary {
    std::size_t window = 0;      // configured capacity W
    std::uint64_t total = 0;     // requests recorded since construction
    std::size_t in_window = 0;   // all retained samples (rates use these)
    std::size_t solves = 0;      // kSolve samples (percentiles use these)
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double deadline_hit_rate = 1.0;  // fraction of window with deadline_ok
    double cache_hit_rate = 0.0;     // hits / (hits + solves)
    [[nodiscard]] std::string to_string() const;
  };

  /// `window` is clamped to >= 1. Memory is `window * sizeof(Sample)`,
  /// allocated up front so record() never allocates.
  explicit SloTracker(std::size_t window = 512);

  void record(double latency_ms, bool deadline_ok, SloKind kind);

  [[nodiscard]] Summary summary() const;

  /// Write the summary into `registry` (nullptr = global) as `slo.*` gauges:
  /// slo.window, slo.samples, slo.solve_samples, slo.total, slo.p50_ms,
  /// slo.p95_ms, slo.p99_ms, slo.deadline_hit_rate, slo.cache_hit_rate.
  /// Call at drain or on export ticks so `--stats json` and the exporter
  /// carry the rolling view.
  void publish(Registry* registry = nullptr) const;

 private:
  mutable core::Mutex mu_;
  std::vector<Sample> ring_ SP_GUARDED_BY(mu_);
  std::size_t next_ SP_GUARDED_BY(mu_) = 0;
  std::size_t filled_ SP_GUARDED_BY(mu_) = 0;
  std::uint64_t total_ SP_GUARDED_BY(mu_) = 0;
};

}  // namespace sectorpack::obs
