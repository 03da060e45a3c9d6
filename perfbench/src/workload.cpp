#include "workload.hpp"

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"ops_per_s", "1/s"}, {"served_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},   {"setup_s", "s"},
};

// Self times of the layer spans and probes first, then derived values.
constexpr MetricSpec kPerLayer[] = {
    {"model.read_ms", "ms", "model.read"},
    {"model.write_ms", "ms", "model.write"},
    {"model.validate_ms", "ms", "model.validate"},
    {"bounds.flow_window_ms", "ms", "bounds.flow_window"},
    {"sectors.solve_ms", "ms", "sectors.solve"},
    {"geom.grid_build_ms", "ms", "geom.grid_build"},
    {"geom.query_ms", "ms", "geom.query"},
    {"verify.check_ms", "ms", "verify.check"},
    {"srv.canonicalize_ms", "ms", "srv.canonicalize"},
    {"srv.cache_ms", "ms", "srv.cache"},
    {"srv.project_ms", "ms", "srv.project"},
    {"race.solve_ms", "ms", "race.solve"},
    {"srv.session_ms", "ms", "srv.session"},
    {"srv.reply_ms", "ms", "srv.reply"},
    {"srv.escape_ms", "ms", "srv.escape"},
    {"srv.parse_request_us", "us", "srv.parse_request"},
    {"srv.parse_op_us", "us", "srv.parse_op"},
    {"geom.grid_precision", "ratio"},
    {"geom.sweep_steps", "count"},
    {"knapsack.solve_frac", "ratio"},
    {"knapsack.cache_hit_ratio", "ratio"},
    {"srv.cache_hit_ratio", "ratio"},
    {"srv.queue_wait_p50_ms", "ms"},
    {"srv.queue_wait_p99_ms", "ms"},
    {"srv.service_p99_ms", "ms"},
    {"srv.worker_busy_frac", "ratio"},
    {"race.phase_b_frac", "ratio"},
    {"srv.memo_hit_ratio", "ratio"},
    {"srv.dirty_ratio", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

void add_end_to_end(RunResult& result, const EndToEnd& e2e) {
  const std::vector<double>& lat = e2e.latency_ms;
  const std::size_t n = lat.size();
  result.add("latency_p50_ms", median(lat), "ms", n);
  result.add("ops_per_s", median(e2e.ops_per_s), "1/s", e2e.ops_per_s.size(),
             e2e.ops_per_s.size() > 1 ? "median over passes" : "");
  result.add("served_ratio", e2e.served_ratio, "ratio", e2e.served_samples);
  result.add("peak_rss_mb", e2e.peak_rss_mb, "MiB", e2e.rss_samples);
  result.add("setup_s", median(e2e.setup_s), "s", e2e.setup_s.size(),
             "median over set-ups");
  // Tail percentiles, each only where at least kMinBeyond samples lie
  // beyond it; not in the result line, which every workload must fill.
  std::cout << "latency tail (" << n << " ops):";
  for (const double q : {0.9, 0.99, 0.999}) {
    std::cout << " p" << 100.0 * q << "=";
    if (percentile_supported(n, q)) {
      std::cout << percentile(lat, q) << "ms";
    } else {
      std::cout << "unsupported";
    }
  }
  std::cout << "\n";
}

void add_per_layer(RunResult& result, const Layers& layers) {
  const LayerTable& t = layers.table;
  for (const MetricSpec& spec : kPerLayer) {
    const std::string name = spec.name;
    if (name == "trace.coverage") {
      result.add(name, t.coverage(), spec.unit, t.ops);
    } else if (name == "trace.overhead_frac") {
      const double untraced = median(layers.untraced_op_ms);
      result.add(name, ratio(median(layers.traced_op_ms), untraced) - 1.0,
                 spec.unit, layers.traced_op_ms.size(),
                 "traced vs untraced op median");
    } else if (const auto it = layers.extra.find(name);
               it != layers.extra.end()) {
      result.add(name, it->second.value, spec.unit, it->second.samples);
    } else if (spec.span != nullptr) {
      const std::string span = spec.span;
      const double scale = std::string_view(spec.unit) == "us" ? 1e3 : 1.0;
      const auto calls = t.calls.find(span);
      if (calls == t.calls.end()) {
        result.add(name, 0.0, spec.unit, t.ops, "not entered");
      } else if (t.probe_ms.count(span) > 0) {
        result.add(name, scale * t.per_op_ms(span), spec.unit, calls->second,
                   "per probe call");
      } else {
        result.add(name, scale * t.per_op_ms(span), spec.unit, t.ops,
                   "per op");
      }
    } else {
      result.add(name, 0.0, spec.unit, 0, "not entered");
    }
  }
  std::cout << "where the time goes (self time per op, " << t.ops
            << " traced ops):\n";
  print_layer_table(std::cout, t);
}

Counters read_counters() {
  Counters out;
  for (const auto& [name, value] : sectorpack::obs::snapshot().counters) {
    out[name] = value;
  }
  return out;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t prev = it == before.end() ? 0 : it->second;
    if (value != prev) delta[name] = value - prev;
  }
  return delta;
}

std::string counters_json(const Counters& delta) {
  std::ostringstream os;
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : delta) {
    if (!first) os << ",";
    first = false;
    os << "\"" << sectorpack::obs::json_escape(name) << "\":" << value;
  }
  os << "}";
  return os.str();
}

std::uint64_t count_of(const Counters& c, const char* name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

void add_solver_counters(Layers& layers, const Counters& total,
                         std::size_t ops) {
  const auto c = [&](const char* name) {
    return static_cast<double>(count_of(total, name));
  };
  const auto put = [&](const char* metric, double value) {
    layers.extra[metric] = Layers::Value{value, ops};
  };
  put("geom.grid_precision", ratio(c("grid.results"), c("grid.candidates")));
  put("geom.sweep_steps", ratio(c("sweep.delta.steps"), static_cast<double>(ops)));
  put("knapsack.solve_frac", ratio(c("oracle.solves"), c("sweep.delta.steps")));
  put("knapsack.cache_hit_ratio",
      ratio(c("oracle.cache.hits"),
            c("oracle.cache.hits") + c("oracle.cache.misses")));
}

void write_file(const std::filesystem::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void dump_trace(const Context& ctx, const char* workload,
                const Recorder& recorder) {
  const std::filesystem::path path =
      ctx.work / (std::string(workload) + ".trace.json");
  std::ofstream out(path);
  recorder.write_chrome_trace(out);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  std::cout << "trace: " << recorder.spans().size() << " spans written to "
            << path.string() << "\n";
}

}  // namespace perfbench
