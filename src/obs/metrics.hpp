#pragma once
// Solver telemetry: named counters, gauges, and log-linear (HDR-style)
// histograms behind a process-wide enable switch.
//
// Design:
//  * One set of relaxed atomics per registry, shared by every writer
//    thread: counters, HDR buckets and counts take a fetch_add, the HDR
//    sum a floating-point fetch_add, min and max a compare-exchange loop,
//    and gauges a store. Hot paths write once per scan, DP call or move,
//    too rarely for threads running side by side (batch pumps, race lanes,
//    shard sub-solves) to contend. Snapshots read each slot once under
//    the registry mutex.
//  * Every write path is a no-op while obs is disabled (the default). The
//    only residual cost in instrumented code is one relaxed atomic load and
//    a well-predicted branch, which keeps solvers within the "zero overhead
//    when off" budget.
//  * Registration (name -> slot id) takes a mutex but is rare: call sites
//    hold a static handle (`static const obs::Counter c = obs::counter(...)`).
//  * Handles keep the registry state alive via shared_ptr, so a handle that
//    outlives its Registry degrades to writes nobody will read, never UB.
//
// Naming scheme (see docs/observability.md): `<subsystem>.<noun>[_<unit>]`,
// e.g. `anneal.accepted`, `dinic.augmenting_paths`, `cli.solve_ms`, and the
// batch engine's `srv.*` family (docs/serving.md).

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sectorpack::obs {

/// Process-wide switch; metric writes are dropped while disabled (default).
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// Counter and gauge slots are fixed-size arrays so writers never race a
// reallocation; registering more names than a limit throws std::length_error.
inline constexpr std::size_t kMaxCounters = 128;
inline constexpr std::size_t kMaxGauges = 64;

// ---------------------------------------------------------------------------
// Log-linear (HDR-style) histograms: each power-of-two octave is split into
// 2^kHdrSubBits equal-width sub-buckets, so every bucket's relative width is
// at most 2^-kHdrSubBits and quantile() answers with that relative error
// bound (<= 0.79% at the fixed precision of 7 bits). The value range covers
// octaves [2^kHdrMinExp, 2^(kHdrMaxExp+1)): in milliseconds that is ~1us up
// to ~12 days. Values below the range (including 0, negatives, NaN) land in
// bucket 0; values above clamp to the last bucket. Quantiles are clamped to
// the recorded min/max, so range clamping never inflates the extremes.

inline constexpr std::size_t kMaxHdrHistograms = 8;
inline constexpr int kHdrMinExp = -10;
inline constexpr int kHdrMaxExp = 30;
inline constexpr unsigned kHdrSubBits = 7;  // 128 sub-buckets per octave
inline constexpr std::size_t kHdrOctaves =
    static_cast<std::size_t>(kHdrMaxExp - kHdrMinExp + 1);
inline constexpr std::size_t kHdrBuckets = kHdrOctaves << kHdrSubBits;

[[nodiscard]] std::size_t hdr_bucket_index(double value) noexcept;
[[nodiscard]] double hdr_bucket_lower(std::size_t bucket) noexcept;
/// Exclusive upper bound; +infinity for the last bucket.
[[nodiscard]] double hdr_bucket_upper(std::size_t bucket) noexcept;

namespace detail {
struct State;
struct HdrSlot;
}  // namespace detail

struct HdrHistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Non-empty buckets only, ascending by bucket index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  [[nodiscard]] double mean() const noexcept;
  /// Rank-interpolated quantile, q in [0, 1], clamped to the recorded
  /// min/max. Relative error is bounded by the bucket width,
  /// 2^-kHdrSubBits.
  [[nodiscard]] double quantile(double q) const noexcept;
};

/// A point-in-time view of a Registry. Counters and gauges are sorted by
/// name; unset gauges are omitted.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HdrHistogramSnapshot> hdr_histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  /// Lookup by name; nullptr when absent. The pointer is into this
  /// snapshot, valid while the snapshot is alive and unmodified.
  [[nodiscard]] const HdrHistogramSnapshot* hdr_histogram(
      std::string_view name) const noexcept;
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_text() const;
};

/// Monotonic event count.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta) const noexcept;
  void inc() const noexcept { add(1); }

 private:
  friend class Registry;
  Counter(std::shared_ptr<detail::State> state, std::size_t id) noexcept
      : state_(std::move(state)), id_(id) {}
  std::shared_ptr<detail::State> state_;
  std::size_t id_ = 0;
};

/// Last-written value (temperature, scaling factor, fleet size, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept;

 private:
  friend class Registry;
  Gauge(std::shared_ptr<detail::State> state, std::size_t id) noexcept
      : state_(std::move(state)), id_(id) {}
  std::shared_ptr<detail::State> state_;
  std::size_t id_ = 0;
};

/// Log-linear distribution with count/sum/min/max and accurate quantiles
/// (see the constants above).
class HdrHistogram {
 public:
  HdrHistogram() = default;
  void observe(double value) const noexcept;

 private:
  friend class Registry;
  // Points at this histogram's slot and shares ownership of the registry
  // state that holds it.
  explicit HdrHistogram(std::shared_ptr<detail::HdrSlot> slot) noexcept
      : slot_(std::move(slot)) {}
  std::shared_ptr<detail::HdrSlot> slot_;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Fetch-or-register a metric by name. Repeated calls with the same name
  /// return handles to the same slot.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] HdrHistogram hdr_histogram(std::string_view name);

  /// Read every registered slot into a point-in-time view. Safe to call
  /// while other threads keep writing (their in-flight writes may or may
  /// not be seen).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every recorded value; names stay registered.
  void reset();

  /// Process-wide registry used by the instrumented solvers and the free
  /// functions below.
  static Registry& global();

 private:
  std::shared_ptr<detail::State> state_;
};

/// Shorthands on the global registry.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
[[nodiscard]] HdrHistogram hdr_histogram(std::string_view name);
[[nodiscard]] Snapshot snapshot();
void reset();

/// JSON string escaping (shared by the snapshot/trace/bench emitters).
[[nodiscard]] std::string json_escape(std::string_view s);
/// Format a double as a JSON number token; non-finite values become null.
[[nodiscard]] std::string json_number(double v);

}  // namespace sectorpack::obs
