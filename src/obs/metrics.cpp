#include "src/obs/metrics.hpp"

#include "src/core/sync.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
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

// One histogram's buckets and summary, written by every thread that
// observes into it.
struct HdrSlot {
  std::array<std::atomic<std::uint64_t>, kHdrBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{kInf};
  std::atomic<double> max{-kInf};
};

struct State {
  mutable core::Mutex mu;
  // Registration tables are mu-guarded. Writers never touch them: a
  // counter or gauge handle indexes the fixed arrays below, and a
  // histogram handle points at its slot.
  std::vector<std::string> counter_names SP_GUARDED_BY(mu);  // slot -> name
  std::vector<std::string> gauge_names SP_GUARDED_BY(mu);
  std::vector<std::string> hdr_names SP_GUARDED_BY(mu);
  // Allocated when its name registers, so a registry pays ~42 KB per
  // histogram it has, not per histogram it could have.
  std::vector<std::unique_ptr<HdrSlot>> hdr SP_GUARDED_BY(mu);
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<double>, kMaxGauges> gauges{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_set{};
};

namespace {

// Caller holds the registry mutex.
std::size_t register_name(std::vector<std::string>& names, std::size_t limit,
                          std::string_view name, const char* kind) {
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

// Moves `extreme` to `value` while `better(value, extreme)`; a writer that
// lost the race retries against the value that beat it.
template <class Better>
void update_extreme(std::atomic<double>& extreme, double value,
                    Better better) {
  // sp-sync: relaxed CAS; the slot only ever moves toward `better`, and
  // snapshot() reads it once with no ordering against other slots.
  double seen = extreme.load(std::memory_order_relaxed);
  while (better(value, seen) &&
         !extreme.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

}  // namespace detail

void Counter::add(std::uint64_t delta) const noexcept {
  if (!enabled() || state_ == nullptr) return;
  // sp-sync: relaxed increment of a slot all writers share; snapshot()
  // reads each slot once and tolerates a slightly stale value.
  state_->counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(double value) const noexcept {
  if (!enabled() || state_ == nullptr) return;
  // sp-sync: relaxed last-write-wins pair; a snapshot racing the first set
  // may miss the value for one tick, which gauges tolerate by contract.
  state_->gauges[id_].store(value, std::memory_order_relaxed);
  state_->gauge_set[id_].store(true, std::memory_order_relaxed);
}

void HdrHistogram::observe(double value) const noexcept {
  if (!enabled() || slot_ == nullptr) return;
  detail::HdrSlot& h = *slot_;
  // sp-sync: relaxed read-modify-writes on slots all writers share; each is
  // atomic on its own, and a snapshot racing this call may see some of its
  // fields updated and not others, which snapshots tolerate by contract.
  h.buckets[hdr_bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  detail::update_extreme(h.min, value, std::less<>());
  detail::update_extreme(h.max, value, std::greater<>());
}

Registry::Registry() : state_(std::make_shared<detail::State>()) {}

Registry::~Registry() = default;

Counter Registry::counter(std::string_view name) {
  core::LockGuard lock(state_->mu);
  return Counter(state_, detail::register_name(state_->counter_names,
                                               kMaxCounters, name, "counter"));
}

Gauge Registry::gauge(std::string_view name) {
  core::LockGuard lock(state_->mu);
  return Gauge(state_, detail::register_name(state_->gauge_names, kMaxGauges,
                                             name, "gauge"));
}

HdrHistogram Registry::hdr_histogram(std::string_view name) {
  core::LockGuard lock(state_->mu);
  const std::size_t id = detail::register_name(
      state_->hdr_names, kMaxHdrHistograms, name, "hdr histogram");
  if (id == state_->hdr.size()) {
    state_->hdr.push_back(std::make_unique<detail::HdrSlot>());
  }
  // Aliasing pointer: shares ownership of the state, points at its slot.
  return HdrHistogram(
      std::shared_ptr<detail::HdrSlot>(state_, state_->hdr[id].get()));
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  core::LockGuard lock(state_->mu);

  // sp-sync: relaxed reads throughout this function; a snapshot is a
  // best-effort view by contract (writers keep recording while we read),
  // so no acquire pairing exists.
  snap.counters.reserve(state_->counter_names.size());
  for (std::size_t i = 0; i < state_->counter_names.size(); ++i) {
    snap.counters.emplace_back(
        state_->counter_names[i],
        state_->counters[i].load(std::memory_order_relaxed));
  }

  // sp-sync: as above (best-effort snapshot reads).
  for (std::size_t i = 0; i < state_->gauge_names.size(); ++i) {
    if (!state_->gauge_set[i].load(std::memory_order_relaxed)) continue;
    snap.gauges.emplace_back(
        state_->gauge_names[i],
        state_->gauges[i].load(std::memory_order_relaxed));
  }

  for (std::size_t i = 0; i < state_->hdr_names.size(); ++i) {
    const detail::HdrSlot& sh = *state_->hdr[i];
    HdrHistogramSnapshot h;
    h.name = state_->hdr_names[i];
    // sp-sync: as above (best-effort snapshot reads).
    h.count = sh.count.load(std::memory_order_relaxed);
    h.sum = sh.sum.load(std::memory_order_relaxed);
    if (h.count != 0) {
      h.min = sh.min.load(std::memory_order_relaxed);
      h.max = sh.max.load(std::memory_order_relaxed);
    }
    for (std::size_t b = 0; b < kHdrBuckets; ++b) {
      const std::uint64_t n = sh.buckets[b].load(std::memory_order_relaxed);
      if (n != 0) h.buckets.emplace_back(static_cast<std::uint32_t>(b), n);
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
  // sp-sync: relaxed stores; reset is best-effort against concurrent
  // writers by the same contract as snapshot().
  for (auto& c : state_->counters) c.store(0, std::memory_order_relaxed);
  for (const auto& h : state_->hdr) {
    for (auto& b : h->buckets) b.store(0, std::memory_order_relaxed);
    h->count.store(0, std::memory_order_relaxed);
    h->sum.store(0.0, std::memory_order_relaxed);
    h->min.store(kInf, std::memory_order_relaxed);
    h->max.store(-kInf, std::memory_order_relaxed);
  }
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
