#include "src/obs/metrics.hpp"

#include "src/core/sync.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sectorpack::obs {

namespace {

std::atomic<bool> g_enabled{false};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// sp-sync: relaxed on/off flag; recording is best-effort around the toggle
// and no other data is published through it.
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::size_t hdr_bucket_index(double value) noexcept {
  const double lowest = std::ldexp(1.0, kHdrMinExp);
  if (!(value >= lowest)) return 0;  // also catches NaN, negatives, underflow
  const int e = std::ilogb(value);
  if (e > kHdrMaxExp) return kHdrBuckets - 1;
  // Mantissa fraction in [0, 1) selects the linear sub-bucket.
  const double frac = std::ldexp(value, -e) - 1.0;
  const std::size_t sub_count = std::size_t{1} << kHdrSubBits;
  const auto sub = std::min(
      static_cast<std::size_t>(frac * static_cast<double>(sub_count)),
      sub_count - 1);
  return (static_cast<std::size_t>(e - kHdrMinExp) << kHdrSubBits) | sub;
}

double hdr_bucket_lower(std::size_t bucket) noexcept {
  const std::size_t sub_count = std::size_t{1} << kHdrSubBits;
  const int e = kHdrMinExp + static_cast<int>(bucket >> kHdrSubBits);
  const std::size_t sub = bucket & (sub_count - 1);
  return std::ldexp(
      1.0 + static_cast<double>(sub) / static_cast<double>(sub_count), e);
}

double hdr_bucket_upper(std::size_t bucket) noexcept {
  if (bucket + 1 >= kHdrBuckets) return kInf;
  return hdr_bucket_lower(bucket + 1);
}

namespace detail {

// One writer thread's slice of the registry. Only the owning thread writes;
// relaxed atomics let snapshot() read concurrently without tearing.
struct Shard {
  struct HdrSlot {
    std::array<std::atomic<std::uint64_t>, kHdrBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{kInf};
    std::atomic<double> max{-kInf};
  };
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HdrSlot, kMaxHdrHistograms> hdr{};

  void zero() {
    // sp-sync: relaxed stores; zero() runs under the registry mutex
    // (Registry::reset) and concurrent writers/readers already tolerate
    // per-slot staleness, so no cross-slot ordering is needed.
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : hdr) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(kInf, std::memory_order_relaxed);
      h.max.store(-kInf, std::memory_order_relaxed);
    }
  }
};

struct State {
  const std::uint64_t uid;
  mutable core::Mutex mu;
  // Registration tables and the shard list are mu-guarded; the hot record
  // paths never touch them (they go through the thread-local shard cache
  // in local_shard()).
  std::vector<std::string> counter_names SP_GUARDED_BY(mu);  // slot -> name
  std::vector<std::string> gauge_names SP_GUARDED_BY(mu);
  std::vector<std::string> hdr_names SP_GUARDED_BY(mu);
  std::vector<std::unique_ptr<Shard>> shards
      SP_GUARDED_BY(mu);  // one per live writer thread, plus idle ones
  std::vector<Shard*> idle SP_GUARDED_BY(mu);  // shards of exited threads
  // Gauges are set rarely and need last-write-wins across threads, so they
  // live directly in the shared state rather than in shards.
  std::array<std::atomic<double>, kMaxGauges> gauges{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_set{};

  explicit State(std::uint64_t id) : uid(id) {}
};

namespace {

std::size_t register_name(State& st, std::vector<std::string>& names,
                          std::size_t limit, std::string_view name,
                          const char* kind) {
  core::LockGuard lock(st.mu);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  if (names.size() >= limit) {
    throw std::length_error(std::string("obs: too many ") + kind +
                            " metrics (limit " + std::to_string(limit) + ")");
  }
  names.emplace_back(name);
  return names.size() - 1;
}

// Thread-local cache of this thread's shard per registry. Keyed by the
// registry's never-reused uid, so a stale entry for a destroyed registry can
// never alias a new one. A shard is only dereferenced through a live handle,
// which keeps its registry -- the shard's owner -- alive.
//
// Threads come and go (every fan-out starts its own), so a thread's exit
// hands its shards back to their registries, and the next new writer adopts
// one instead of allocating ~340 KB that would be kept forever. Snapshots
// sum shards, so it does not matter which thread wrote a count, and the
// registry mutex orders the old owner's writes before the new owner's.
struct ShardCache {
  struct Entry {
    std::uint64_t uid = 0;
    std::weak_ptr<State> state;
    Shard* shard = nullptr;
  };
  std::vector<Entry> entries;

  ShardCache() = default;
  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;
  ~ShardCache() {
    for (const Entry& e : entries) {
      if (const std::shared_ptr<State> state = e.state.lock()) {
        core::LockGuard lock(state->mu);
        state->idle.push_back(e.shard);
      }
    }
  }
};

Shard* local_shard(const std::shared_ptr<State>& state) {
  thread_local ShardCache cache;
  for (const ShardCache::Entry& e : cache.entries) {
    if (e.uid == state->uid) return e.shard;
  }
  Shard* shard = nullptr;
  {
    core::LockGuard lock(state->mu);
    if (state->idle.empty()) {
      state->shards.push_back(std::make_unique<Shard>());
      shard = state->shards.back().get();
    } else {
      shard = state->idle.back();
      state->idle.pop_back();
    }
  }
  cache.entries.push_back({state->uid, state, shard});
  return shard;
}

}  // namespace

}  // namespace detail

void Counter::add(std::uint64_t delta) const noexcept {
  if (!enabled() || state_ == nullptr) return;
  // sp-sync: relaxed increment on a single-writer shard slot; snapshot()
  // sums slots and tolerates a slightly-stale per-thread value.
  detail::local_shard(state_)->counters[id_].fetch_add(
      delta, std::memory_order_relaxed);
}

void Gauge::set(double value) const noexcept {
  if (!enabled() || state_ == nullptr) return;
  // sp-sync: relaxed last-write-wins pair; a snapshot racing the first set
  // may miss the value for one tick, which gauges tolerate by contract.
  state_->gauges[id_].store(value, std::memory_order_relaxed);
  state_->gauge_set[id_].store(true, std::memory_order_relaxed);
}

void HdrHistogram::observe(double value) const noexcept {
  if (!enabled() || state_ == nullptr) return;
  detail::Shard::HdrSlot& h = detail::local_shard(state_)->hdr[id_];
  // sp-sync: relaxed ops on single-writer shard slots; only the owning
  // thread writes, so load-modify-store without CAS is race-free, and
  // snapshot() accepts slightly-stale cross-thread reads.
  h.buckets[hdr_bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  // sp-sync: as above (single-writer slot).
  if (value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
}

Registry::Registry() {
  static std::atomic<std::uint64_t> next_uid{1};
  // sp-sync: relaxed uid allocation; uniqueness is all that matters and
  // fetch_add provides it at any memory order.
  state_ = std::make_shared<detail::State>(
      next_uid.fetch_add(1, std::memory_order_relaxed));
}

Registry::~Registry() = default;

Counter Registry::counter(std::string_view name) {
  const std::size_t id = detail::register_name(
      *state_, state_->counter_names, kMaxCounters, name, "counter");
  return Counter(state_, id);
}

Gauge Registry::gauge(std::string_view name) {
  const std::size_t id = detail::register_name(
      *state_, state_->gauge_names, kMaxGauges, name, "gauge");
  return Gauge(state_, id);
}

HdrHistogram Registry::hdr_histogram(std::string_view name) {
  const std::size_t id =
      detail::register_name(*state_, state_->hdr_names, kMaxHdrHistograms,
                            name, "hdr histogram");
  return HdrHistogram(state_, id);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  core::LockGuard lock(state_->mu);

  // sp-sync: relaxed reads of single-writer slots throughout this
  // function; a snapshot is an instantaneous best-effort sum by contract
  // (writers keep recording while we read), so no acquire pairing exists.
  snap.counters.reserve(state_->counter_names.size());
  for (std::size_t i = 0; i < state_->counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& shard : state_->shards) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.emplace_back(state_->counter_names[i], total);
  }

  // sp-sync: as above (best-effort snapshot reads).
  for (std::size_t i = 0; i < state_->gauge_names.size(); ++i) {
    if (!state_->gauge_set[i].load(std::memory_order_relaxed)) continue;
    snap.gauges.emplace_back(
        state_->gauge_names[i],
        state_->gauges[i].load(std::memory_order_relaxed));
  }

  std::vector<std::uint64_t> merged;
  for (std::size_t i = 0; i < state_->hdr_names.size(); ++i) {
    HdrHistogramSnapshot h;
    h.name = state_->hdr_names[i];
    h.min = kInf;
    h.max = -kInf;
    merged.assign(kHdrBuckets, 0);
    // sp-sync: as above (best-effort snapshot reads).
    for (const auto& shard : state_->shards) {
      const detail::Shard::HdrSlot& sh = shard->hdr[i];
      h.count += sh.count.load(std::memory_order_relaxed);
      h.sum += sh.sum.load(std::memory_order_relaxed);
      h.min = std::min(h.min, sh.min.load(std::memory_order_relaxed));
      h.max = std::max(h.max, sh.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < kHdrBuckets; ++b) {
        merged[b] += sh.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (h.count == 0) {
      h.min = 0.0;
      h.max = 0.0;
    }
    for (std::size_t b = 0; b < kHdrBuckets; ++b) {
      if (merged[b] != 0) {
        h.buckets.emplace_back(static_cast<std::uint32_t>(b), merged[b]);
      }
    }
    snap.hdr_histograms.push_back(std::move(h));
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.hdr_histograms.begin(), snap.hdr_histograms.end(),
            [](const HdrHistogramSnapshot& a, const HdrHistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void Registry::reset() {
  core::LockGuard lock(state_->mu);
  for (const auto& shard : state_->shards) shard->zero();
  // sp-sync: relaxed stores; reset is best-effort against concurrent
  // writers by the same contract as snapshot().
  for (auto& g : state_->gauges) g.store(0.0, std::memory_order_relaxed);
  for (auto& f : state_->gauge_set) f.store(false, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter counter(std::string_view name) {
  return Registry::global().counter(name);
}
Gauge gauge(std::string_view name) { return Registry::global().gauge(name); }
HdrHistogram hdr_histogram(std::string_view name) {
  return Registry::global().hdr_histogram(name);
}
Snapshot snapshot() { return Registry::global().snapshot(); }
void reset() { Registry::global().reset(); }

double HdrHistogramSnapshot::mean() const noexcept {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double HdrHistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (const auto& [bucket, n] : buckets) {
    const auto next = static_cast<double>(seen + n);
    if (next >= target) {
      // Interpolate by rank inside this bucket, clamped to the recorded
      // extremes so the range-clamping buckets never inflate an answer.
      // Bucket 0 also holds everything below the range (including 0), so
      // its effective lower bound is the recorded min, not 2^kHdrMinExp.
      const double lo =
          bucket == 0 ? min : std::max(hdr_bucket_lower(bucket), min);
      const double hi = std::min(hdr_bucket_upper(bucket), max);
      if (hi <= lo) return lo;
      const double within =
          (target - static_cast<double>(seen)) / static_cast<double>(n);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen += n;
  }
  return max;
}

std::uint64_t Snapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HdrHistogramSnapshot* Snapshot::hdr_histogram(
    std::string_view name) const noexcept {
  for (const HdrHistogramSnapshot& h : hdr_histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // printf's %.12g, as operator<< at precision 12 wrote it.
  char buf[32];
  return std::string(
      buf, std::to_chars(buf, std::end(buf), v, std::chars_format::general, 12)
               .ptr);
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(counters[i].first)
       << "\":" << counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(gauges[i].first)
       << "\":" << json_number(gauges[i].second);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < hdr_histograms.size(); ++i) {
    const HdrHistogramSnapshot& h = hdr_histograms[i];
    if (i > 0) os << ",";
    os << "\"" << json_escape(h.name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max)
       << ",\"p50\":" << json_number(h.quantile(0.5))
       << ",\"p95\":" << json_number(h.quantile(0.95))
       << ",\"p99\":" << json_number(h.quantile(0.99))
       << ",\"precision_bits\":" << kHdrSubBits << ",\"buckets\":[";
    bool first = true;
    for (const auto& [bucket, n] : h.buckets) {
      if (!first) os << ",";
      first = false;
      os << "[" << json_number(hdr_bucket_lower(bucket)) << ","
         << n << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string Snapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << name << " " << json_number(value) << "\n";
  }
  for (const HdrHistogramSnapshot& h : hdr_histograms) {
    os << h.name << " count=" << h.count << " mean=" << json_number(h.mean())
       << " min=" << json_number(h.min) << " p50="
       << json_number(h.quantile(0.5)) << " p95="
       << json_number(h.quantile(0.95)) << " p99="
       << json_number(h.quantile(0.99)) << " max=" << json_number(h.max)
       << "\n";
  }
  return os.str();
}

}  // namespace sectorpack::obs
