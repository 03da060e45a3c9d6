#pragma once
// What every workload shares: the run context, the end-to-end and
// per-layer metric sets, set-up timing, obs counter deltas, and file
// helpers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "src/obs/metrics.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;       // how long the timed part runs
  bool trace = false;          // the traced run instead of the timed one
  std::string cli;             // path of the sectorpack binary
  std::filesystem::path work;  // scratch directory for this run's files
};

using Workload = RunResult (*)(const Context&);

RunResult run_cli_solve(const Context& ctx);
RunResult run_huge_solve(const Context& ctx);
RunResult run_batch_mix(const Context& ctx);
RunResult run_serve_churn(const Context& ctx);

struct MetricSpec {
  const char* name;
  const char* unit;
  /// For a per-layer self-time metric, the span (or probe) it sums;
  /// nullptr for every other metric.
  const char* span = nullptr;
};

/// The end-to-end metrics every timed run reports (BENCHMARK.json
/// "end_to_end"), and the per-layer metrics every traced run reports
/// ("per_layer"), in report order.
[[nodiscard]] std::span<const MetricSpec> end_to_end_metrics();
[[nodiscard]] std::span<const MetricSpec> per_layer_metrics();

/// Measurements behind the end-to-end metrics of one timed run.
struct EndToEnd {
  std::vector<double> latency_ms;  // one per op, measured from outside
  std::vector<double> ops_per_s;   // one per pass (or one for the run)
  double served_ratio = 0.0;       // mean served value / trivial_bound
  std::size_t served_samples = 0;
  double peak_rss_mb = 0.0;
  std::size_t rss_samples = 0;
  std::vector<double> setup_s;  // one per set-up repetition
};

/// Report every end-to-end metric (medians of the repeated ones).
void add_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Measurements behind the per-layer metrics of one traced run.
struct Layers {
  LayerTable table;
  /// Per-layer values other than self times (ratios, counts, percentiles
  /// from the access log), keyed by metric name.
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::map<std::string, Value> extra;
  std::vector<double> untraced_op_ms;
  std::vector<double> traced_op_ms;
};

/// Report every per-layer metric; layers the workload never entered read
/// 0. Also prints the "where the time goes" table.
void add_per_layer(RunResult& result, const Layers& layers);

/// Set-up repetitions per run: set-up time is the median of these.
inline constexpr int kSetupReps = 3;

/// Wall seconds of fn().
template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// obs counter values, by name.
using Counters = std::map<std::string, std::uint64_t>;

/// One traced op: its wall time, the obs counters it moved, and its span.
struct TracedOp {
  double ms = 0.0;
  Counters delta;
  std::int32_t span = -1;
};

/// The current obs counter values.
[[nodiscard]] Counters read_counters();
/// after - before, keeping the counters that moved.
[[nodiscard]] Counters counter_delta(const Counters& before,
                                     const Counters& after);
/// `"counters":{...}` for a span's trace args.
[[nodiscard]] std::string counters_json(const Counters& delta);

/// Runs `body` as op `id`: inside an op span, between two counter
/// snapshots whose difference is added to `total` and attached to the span.
template <typename Fn>
TracedOp traced_op(Recorder& rec, std::uint32_t id, Counters& total,
                   Fn&& body) {
  TracedOp t;
  const Counters before = read_counters();
  t.ms = 1e3 * seconds_of([&] {
    const auto op = rec.op(id);
    t.span = op.id();
    body();
  });
  t.delta = counter_delta(before, read_counters());
  for (const auto& [name, value] : t.delta) total[name] += value;
  rec.annotate(t.span, counters_json(t.delta));
  return t;
}
/// Alternates untraced and traced ops until their summed time reaches
/// `seconds`, so drift over the run (warming caches, a growing session,
/// the host's speed) lands on both sides of trace.overhead_frac alike.
/// `untraced()` runs with obs off, `traced(id)` with obs on; each returns
/// its op time in ms (see traced_op).
template <typename Untraced, typename Traced>
void alternate_ops(double seconds, Layers& layers, Untraced&& untraced,
                   Traced&& traced) {
  for (double spent_ms = 0.0; spent_ms < 1e3 * seconds;) {
    double ms = 0.0;
    if (layers.untraced_op_ms.size() <= layers.traced_op_ms.size()) {
      ms = untraced();
      layers.untraced_op_ms.push_back(ms);
    } else {
      sectorpack::obs::set_enabled(true);
      ms = traced(static_cast<std::uint32_t>(layers.traced_op_ms.size()));
      sectorpack::obs::set_enabled(false);
      layers.traced_op_ms.push_back(ms);
    }
    spent_ms += ms;
  }
}

[[nodiscard]] std::uint64_t count_of(const Counters& c, const char* name);
/// a / b, or 0 when b is 0.
[[nodiscard]] double ratio(double a, double b);

/// Counter-derived per-layer values shared by the solver layers: grid
/// precision, sweep steps per op, oracle solve fraction and cache hit
/// ratio.
void add_solver_counters(Layers& layers, const Counters& total,
                         std::size_t ops);

void write_file(const std::filesystem::path& path, std::string_view text);
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Writes the recorder's spans as Chrome trace JSON into the work
/// directory and says where.
void dump_trace(const Context& ctx, const char* workload,
                const Recorder& recorder);

}  // namespace perfbench
