#include "src/obs/slo.hpp"

#include <algorithm>
#include <sstream>

#include "src/bench_util/stats.hpp"
#include "src/obs/metrics.hpp"

namespace sectorpack::obs {

SloTracker::SloTracker(std::size_t window)
    : ring_(std::max<std::size_t>(window, 1)) {}

void SloTracker::record(double latency_ms, bool deadline_ok, SloKind kind) {
  const core::LockGuard lock(mu_);
  ring_[next_] = Sample{latency_ms, deadline_ok, kind};
  next_ = (next_ + 1) % ring_.size();
  filled_ = std::min(filled_ + 1, ring_.size());
  ++total_;
}

SloTracker::Summary SloTracker::summary() const {
  Summary s;
  std::vector<double> latencies;  // kSolve samples only (see slo.hpp)
  {
    const core::LockGuard lock(mu_);
    s.window = ring_.size();
    s.total = total_;
    s.in_window = filled_;
    if (filled_ == 0) return s;
    latencies.reserve(filled_);
    std::size_t deadline_ok = 0;
    std::size_t cache_hits = 0;
    for (std::size_t i = 0; i < filled_; ++i) {
      const Sample& sample = ring_[i];
      if (sample.kind == SloKind::kSolve) {
        latencies.push_back(sample.latency_ms);
      }
      deadline_ok += sample.deadline_ok ? 1 : 0;
      cache_hits += sample.kind == SloKind::kCacheHit ? 1 : 0;
    }
    s.solves = latencies.size();
    s.deadline_hit_rate =
        static_cast<double>(deadline_ok) / static_cast<double>(filled_);
    const std::size_t answered = s.solves + cache_hits;
    s.cache_hit_rate = answered > 0 ? static_cast<double>(cache_hits) /
                                          static_cast<double>(answered)
                                    : 0.0;
  }
  s.p50_ms = bench_util::percentile(latencies, 0.50);
  s.p95_ms = bench_util::percentile(latencies, 0.95);
  s.p99_ms = bench_util::percentile(latencies, 0.99);
  return s;
}

std::string SloTracker::Summary::to_string() const {
  std::ostringstream os;
  os << "window=" << in_window << "/" << window << " total=" << total
     << " solves=" << solves
     << " p50_ms=" << p50_ms << " p95_ms=" << p95_ms << " p99_ms=" << p99_ms
     << " deadline_hit_rate=" << deadline_hit_rate
     << " cache_hit_rate=" << cache_hit_rate;
  return os.str();
}

void SloTracker::publish(Registry* registry) const {
  const Summary s = summary();
  Registry& reg = registry != nullptr ? *registry : Registry::global();
  reg.gauge("slo.window").set(static_cast<double>(s.window));
  reg.gauge("slo.samples").set(static_cast<double>(s.in_window));
  reg.gauge("slo.solve_samples").set(static_cast<double>(s.solves));
  reg.gauge("slo.total").set(static_cast<double>(s.total));
  reg.gauge("slo.p50_ms").set(s.p50_ms);
  reg.gauge("slo.p95_ms").set(s.p95_ms);
  reg.gauge("slo.p99_ms").set(s.p99_ms);
  reg.gauge("slo.deadline_hit_rate").set(s.deadline_hit_rate);
  reg.gauge("slo.cache_hit_rate").set(s.cache_hit_rate);
}

}  // namespace sectorpack::obs
