// sectorpack CLI: generate, solve, validate, bound, cover, render.
//
//   sectorpack generate --n 200 --k 4 --spatial hotspots -o city.inst
//   sectorpack solve --in city.inst --solver local-search -o plan.sol
//   sectorpack validate --in city.inst --solution plan.sol
//   sectorpack bound --in city.inst
//   sectorpack cover --in city.inst --algo greedy
//   sectorpack render --in city.inst --solution plan.sol -o plan.svg
//   sectorpack info --in city.inst
//
// Instances and solutions use the plain-text formats documented in
// src/model/io.hpp. "-" for --in/-o means stdin/stdout.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "src/bench_util/timer.hpp"
#include "src/cover/cover.hpp"
#include "src/sectorpack.hpp"
#include "src/sectors/annealing.hpp"
#include "src/verify/verify.hpp"
#include "src/viz/svg.hpp"

#ifndef SECTORPACK_VERSION
#define SECTORPACK_VERSION "unknown"
#endif

using namespace sectorpack;

namespace {

/// Bad invocation (unknown command/flag, missing value): exit status 2 with
/// a one-line hint, distinct from runtime failures (status 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict numeric parsing for flag values. std::stod/std::stoull on their
/// own are the wrong tool here: they throw uncaught std::invalid_argument
/// on garbage (exit 1 with a bare "stod" message), accept trailing junk
/// ("3x" parses as 3), and stoull silently wraps "-1" to 2^64-1. A bad
/// value is a bad invocation, so it must be a UsageError (exit 2) naming
/// the flag and the offending value.
double parse_double_flag(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (value.empty() || pos != value.size()) {
    throw UsageError("--" + key + " expects a number, got '" + value + "'");
  }
  return parsed;
}

std::size_t parse_size_flag(const std::string& key, const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError("--" + key + " expects a non-negative integer, got '" +
                     value + "'");
  }
  try {
    // sp-lint: allow(untrusted-count) CLI flag value, not file input: digits-only pre-validated above, out_of_range mapped to UsageError below
    return static_cast<std::size_t>(std::stoull(value));
  } catch (const std::exception&) {
    throw UsageError("--" + key + " value out of range: '" + value + "'");
  }
}

struct Args {
  std::string command;
  std::map<std::string, std::string> named;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback
                             : parse_double_flag(key, it->second);
  }
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : parse_size_flag(key, it->second);
  }
  /// A size flag parsed into its target type: above `max` is a UsageError,
  /// raised before anything is sized or started from the value.
  template <typename T>
  [[nodiscard]] T get_bounded(const std::string& key, T fallback,
                              T max) const {
    const std::size_t value = get_size(key, fallback);
    if (value > max) {
      throw UsageError("--" + key + " must be at most " +
                       std::to_string(max) + ", got '" + get(key, "") + "'");
    }
    return static_cast<T>(value);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return named.count(key) > 0;
  }
};

/// --time-limit SEC, for every command that takes one. Absent means
/// unlimited (nullopt); zero is allowed (an already-expired budget
/// exercises the degradation path and still exits 0).
std::optional<double> time_limit_flag(const Args& args) {
  if (!args.has("time-limit")) return std::nullopt;
  const double seconds = args.get_double("time-limit", 0.0);
  if (seconds < 0.0) {
    throw UsageError("--time-limit must be >= 0 seconds");
  }
  return seconds;
}

/// --time-limit SEC -> a Deadline for the solver-facing commands.
core::SolveOptions solve_options(const Args& args) {
  core::SolveOptions opts;
  if (const std::optional<double> seconds = time_limit_flag(args)) {
    opts.deadline = core::Deadline::after(*seconds);
  }
  return opts;
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) {
      key = key.substr(2);
    } else if (key == "-o") {
      key = "out";
    } else {
      throw UsageError("unexpected argument: " + key);
    }
    if (i + 1 >= argc) {
      throw UsageError("missing value for --" + key);
    }
    // Every flag here is single-valued; a repeated occurrence is a typo or
    // a mangled script, and silently keeping one of the two values (the old
    // behavior kept the last) hides which one took effect. Note -o and
    // --out collide deliberately: they are the same option.
    if (args.named.count(key) > 0) {
      throw UsageError("duplicate option --" + key + " (given more than once)");
    }
    args.named[key] = argv[++i];
  }
  return args;
}

/// Reject any flag the command does not understand, so typos fail loudly
/// instead of being silently swallowed by the Args map.
void require_known(const Args& args,
                   std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : args.named) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw UsageError("unknown option --" + key + " for '" + args.command +
                       "'");
    }
  }
}

/// Shared --stats/--trace-out/--metrics-* plumbing for the solver-facing
/// commands: enables obs before running, runs a periodic obs::Exporter when
/// metrics files are requested, then prints the registry snapshot (as the
/// schema-versioned envelope for `--stats json`) and/or writes the
/// chrome://tracing file afterwards.
int with_observability(const Args& args, int (*run)(const Args&)) {
  const std::string stats = args.get("stats", "");
  if (!stats.empty() && stats != "json" && stats != "text") {
    throw UsageError("--stats must be json or text, got '" + stats + "'");
  }
  const std::string trace_path = args.get("trace-out", "");

  obs::ExporterConfig exporter_config;
  exporter_config.prom_path = args.get("metrics-out", "");
  exporter_config.jsonl_path = args.get("metrics-jsonl", "");
  const bool metrics_files = !exporter_config.prom_path.empty() ||
                             !exporter_config.jsonl_path.empty();
  if (args.has("metrics-interval")) {
    if (!metrics_files) {
      throw UsageError(
          "--metrics-interval requires --metrics-out or --metrics-jsonl");
    }
    const double interval = args.get_double("metrics-interval", 0.0);
    if (!(interval > 0.0)) {
      throw UsageError("--metrics-interval must be > 0 seconds");
    }
    exporter_config.interval_seconds = interval;
  }

  if (!stats.empty() || !trace_path.empty() || metrics_files) {
    obs::set_enabled(true);
  }
  if (!trace_path.empty()) obs::trace_start();

  const bench_util::Timer wall;
  int rc;
  {
    // Scoped so drain/SIGINT cleanup is a normal destructor: the exporter
    // writes one final snapshot and joins before we read the registry below.
    obs::Exporter exporter(exporter_config);
    rc = run(args);
    exporter.stop();
    if (metrics_files && !exporter.healthy()) {
      throw std::runtime_error("metrics export failed (unwritable --metrics-out/--metrics-jsonl path?)");
    }
  }

  if (!trace_path.empty()) {
    if (!obs::trace_stop_to_file(trace_path)) {
      throw std::runtime_error("cannot write trace to " + trace_path);
    }
    std::cerr << "wrote " << trace_path << " ("
              << "load via chrome://tracing or https://ui.perfetto.dev)\n";
  }
  if (stats == "json") {
    std::cout << obs::stats_envelope_json(obs::snapshot(), wall.elapsed_ms())
              << "\n";
  } else if (stats == "text") {
    std::cout << obs::snapshot().to_text();
  }
  return rc;
}

model::Instance load_instance(const Args& args) {
  const std::string path = args.get("in", "");
  if (path.empty()) {
    throw std::runtime_error("--in <instance file> is required");
  }
  return model::read_instance_file(path);
}

void write_text(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  // A full disk fails the write, or only the flush at close.
  out << text;
  if (out) out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

int cmd_generate(const Args& args) {
  require_known(args, {"n", "k", "spatial", "demand", "radius", "rho-deg",
                       "range", "capacity-fraction", "seed", "out"});
  sim::WorkloadConfig wc;
  wc.num_customers =
      args.get_bounded("n", std::size_t{100}, model::kMaxIoCount);
  const std::string spatial = args.get("spatial", "uniform");
  if (spatial == "uniform") {
    wc.spatial = sim::Spatial::kUniformDisk;
  } else if (spatial == "hotspots") {
    wc.spatial = sim::Spatial::kHotspots;
  } else if (spatial == "ring") {
    wc.spatial = sim::Spatial::kRing;
  } else if (spatial == "arcband") {
    wc.spatial = sim::Spatial::kArcBand;
  } else {
    throw UsageError("unknown --spatial: " + spatial);
  }
  const std::string demand = args.get("demand", "uniform-int");
  if (demand == "unit") {
    wc.demand = sim::DemandDist::kUnit;
  } else if (demand == "uniform-int") {
    wc.demand = sim::DemandDist::kUniformInt;
  } else if (demand == "pareto") {
    wc.demand = sim::DemandDist::kParetoInt;
  } else {
    throw UsageError("unknown --demand: " + demand);
  }
  wc.disk_radius = args.get_double("radius", wc.disk_radius);

  sim::AntennaConfig ac;
  ac.count = args.get_bounded("k", std::size_t{3}, model::kMaxIoCount);
  ac.rho = geom::deg_to_rad(args.get_double("rho-deg", 60.0));
  ac.range = args.get_double("range", 1.3 * wc.disk_radius);
  ac.capacity_fraction = args.get_double("capacity-fraction", 0.5);

  sim::Rng rng(args.get_size("seed", 1));
  const model::Instance inst = sim::make_instance(wc, ac, rng);
  write_text(args.get("out", "-"), model::to_string(inst));
  std::cerr << "generated " << inst.num_customers() << " customers, "
            << inst.num_antennas() << " antennas (demand "
            << inst.total_demand() << ", capacity " << inst.total_capacity()
            << ")\n";
  return 0;
}

int cmd_solve(const Args& args) {
  require_known(args, {"in", "solver", "portfolio", "spatial", "seed",
                       "iterations", "time-limit", "out", "svg", "stats",
                       "trace-out", "metrics-out", "metrics-jsonl",
                       "metrics-interval"});
  static const obs::HdrHistogram h_solve_ms = obs::hdr_histogram("cli.solve_ms");
  // Flag values are checked before any file IO so a bad invocation is
  // always a usage error (2), even when --in is also bad.
  const std::string solver = args.get("solver", "local-search");
  if (!srv::is_known_solver(solver)) {
    throw UsageError("unknown --solver: " + solver +
                     " (known: " + srv::solver_family_names("|") + ")");
  }
  std::string portfolio;
  if (args.has("portfolio")) {
    if (solver != "race") {
      throw UsageError("--portfolio requires --solver race");
    }
    portfolio = args.get("portfolio", "");
    try {
      (void)race::parse_portfolio(portfolio);
    } catch (const std::exception& e) {
      throw UsageError(e.what());
    }
  }
  // Pin the flat-vs-indexed crossover (outputs are bit-identical either
  // way; check.sh --huge byte-compares the two paths through this flag).
  const std::string spatial = args.get("spatial", "auto");
  if (spatial == "flat") {
    geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceFlat);
  } else if (spatial == "index") {
    geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceIndexed);
  } else if (spatial == "auto") {
    geom::set_spatial_index_mode(geom::SpatialIndexMode::kAuto);
  } else {
    throw UsageError("unknown --spatial: " + spatial);
  }
  srv::SolverKey key;
  key.family = solver;
  key.seed = args.get_size("seed", 1);
  key.iterations = args.get_size("iterations", 2000);
  key.portfolio = portfolio;
  const core::SolveOptions opts = solve_options(args);
  const model::Instance inst = load_instance(args);

  const bench_util::Timer timer;
  const obs::ScopedSpan span("cli.solve");
  // Shared dispatch with the batch engine (srv::run_solver), so `solve`
  // and a `batch` cache miss produce byte-identical solutions.
  model::Solution sol = srv::run_solver(inst, key, opts);
  h_solve_ms.observe(timer.elapsed_ms());
  if (sol.status == model::SolveStatus::kBudgetExhausted) {
    // Mirror the status into the metrics registry so --stats json carries
    // it alongside the deadline.expired.* counters.
    obs::counter("cli.solve.budget_exhausted").inc();
  }

  const double served = model::served_value(inst, sol);
  const double bound = inst.is_value_weighted()
                           ? bounds::orientation_free_bound(inst)
                           : bounds::flow_window_bound(inst, opts);
  if (obs::enabled()) {
    // The batch engine's quality.* telemetry, so one-shot solves and batch
    // solves are comparable (docs/observability.md).
    srv::QualityRecorder({srv::find_solver_family(solver), 1})
        .record(inst, solver, served);
  }
  std::cerr << "solver=" << solver
            << " status=" << model::to_string(sol.status)
            << " served_value=" << served << " bound=" << bound << " ratio="
            << (bound > 0 ? served / bound : 1.0) << " feasible="
            << (model::is_feasible(inst, sol) ? "yes" : "NO") << "\n";

  if (args.has("out")) {
    write_text(args.get("out", "-"), model::to_string(sol));
  }
  if (args.has("svg")) {
    viz::write_svg(args.get("svg", ""), inst, &sol);
    std::cerr << "wrote " << args.get("svg", "") << "\n";
  }
  return 0;
}

int cmd_validate(const Args& args) {
  require_known(args, {"in", "solution"});
  const model::Instance inst = load_instance(args);
  const model::Solution sol =
      model::read_solution_file(args.get("solution", "-"));
  const model::ValidationReport report = model::validate(inst, sol);
  if (report.ok) {
    std::cout << "OK: served " << model::served_demand(inst, sol) << " of "
              << inst.total_demand() << "\n";
    return 0;
  }
  std::cout << "INFEASIBLE (" << report.errors.size() << " errors):\n";
  for (const std::string& e : report.errors) {
    std::cout << "  " << e << "\n";
  }
  return 1;
}

// Like validate, but runs the named-invariant verifier from src/verify/:
// prints one line per violated invariant and exits 1, or summarizes the
// accepted solution. Stricter than validate (it additionally rejects
// de-normalized orientations and corrupt status bytes), and its output is
// machine-greppable by invariant name.
int cmd_verify(const Args& args) {
  require_known(args, {"in", "solution"});
  const model::Instance inst = load_instance(args);
  const model::Solution sol =
      model::read_solution_file(args.get("solution", "-"));
  const verify::VerifyReport report = verify::verify_solution(inst, sol);
  if (report.ok) {
    std::cout << "OK: all invariants hold (served "
              << model::served_demand(inst, sol) << " of "
              << inst.total_demand() << ", status "
              << model::to_string(sol.status) << ")\n";
    return 0;
  }
  std::cout << "INVARIANT VIOLATIONS (" << report.violations.size()
            << "):\n";
  for (const verify::Violation& v : report.violations) {
    std::cout << "  [" << v.invariant << "] " << v.detail << "\n";
  }
  return 1;
}

int cmd_bound(const Args& args) {
  require_known(args, {"in", "time-limit", "stats", "trace-out",
                       "metrics-out", "metrics-jsonl", "metrics-interval"});
  const obs::ScopedSpan span("cli.bound");
  const model::Instance inst = load_instance(args);
  const core::SolveOptions opts = solve_options(args);
  std::cout << "trivial            " << bounds::trivial_bound(inst) << "\n";
  std::cout << "orientation-free   " << bounds::orientation_free_bound(inst)
            << "\n";
  if (inst.is_value_weighted()) {
    std::cout << "flow-window        (n/a: value-weighted instance)\n";
  } else {
    std::cout << "flow-window        " << bounds::flow_window_bound(inst, opts)
              << "\n";
  }
  return 0;
}

int cmd_cover(const Args& args) {
  require_known(args, {"in", "algo", "max-k", "stats", "trace-out",
                       "metrics-out", "metrics-jsonl", "metrics-interval"});
  const obs::ScopedSpan span("cli.cover");
  const model::Instance inst = load_instance(args);
  if (inst.num_antennas() == 0) {
    throw std::runtime_error("cover needs an antenna type (antenna 0)");
  }
  const model::AntennaSpec type = inst.antenna(0);
  const std::vector<model::Customer> customers(inst.customers().begin(),
                                               inst.customers().end());
  const std::string algo = args.get("algo", "greedy");
  cover::CoverResult result;
  if (algo == "greedy") {
    result = cover::solve_greedy(customers, type);
  } else if (algo == "nextfit") {
    result = cover::solve_sweep_nextfit(customers, type);
  } else if (algo == "exact") {
    result = cover::solve_exact(customers, type, args.get_size("max-k", 8));
  } else {
    throw UsageError("unknown --algo: " + algo);
  }
  if (!result.feasible) {
    std::cout << "INFEASIBLE: " << result.blockers.size()
              << " customers can never be served by this antenna type\n";
    return 1;
  }
  std::cout << "antennas needed (" << algo << "): " << result.num_antennas()
            << "  [lower bound: " << cover::lower_bound(customers, type)
            << "]\n";
  for (std::size_t j = 0; j < result.alphas.size(); ++j) {
    std::cout << "  antenna " << j << " at "
              << geom::rad_to_deg(result.alphas[j]) << " deg\n";
  }
  return 0;
}

int cmd_render(const Args& args) {
  require_known(args, {"in", "solution", "out"});
  const model::Instance inst = load_instance(args);
  std::optional<model::Solution> sol;
  if (args.has("solution")) {
    sol = model::read_solution_file(args.get("solution", "-"));
  }
  const std::string out = args.get("out", "out.svg");
  viz::write_svg(out, inst, sol ? &*sol : nullptr);
  std::cerr << "wrote " << out << "\n";
  return 0;
}

// Sweep one parameter of the instance's antenna fleet and print a CSV of
// served value per solver -- the CLI face of experiments F1/F2/F4.
int cmd_sweep(const Args& args) {
  require_known(args, {"in", "param", "max"});
  const model::Instance inst = load_instance(args);
  if (inst.num_antennas() == 0) {
    throw std::runtime_error("sweep needs an antenna type (antenna 0)");
  }
  const model::AntennaSpec base = inst.antenna(0);
  const std::vector<model::Customer> customers(inst.customers().begin(),
                                               inst.customers().end());
  const std::string param = args.get("param", "k");

  std::cout << param << ",uniform,greedy,local_search,bound\n";
  const auto run_point = [&](const std::string& label,
                             const std::vector<model::AntennaSpec>& specs) {
    const model::Instance point{customers, specs};
    const double uniform = model::served_value(
        point, sectors::solve_uniform_orientations(point));
    const double greedy =
        model::served_value(point, sectors::solve_greedy(point));
    const double ls =
        model::served_value(point, sectors::solve_local_search(point));
    const double bound = bounds::orientation_free_bound(point);
    std::cout << label << "," << uniform << "," << greedy << "," << ls
              << "," << bound << "\n";
  };

  if (param == "k") {
    const std::size_t k_max = args.get_size("max", 8);
    for (std::size_t k = 1; k <= k_max; ++k) {
      run_point(std::to_string(k),
                std::vector<model::AntennaSpec>(k, base));
    }
  } else if (param == "rho") {
    const std::size_t k = std::max<std::size_t>(inst.num_antennas(), 1);
    for (double deg : {15.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0, 270.0,
                       360.0}) {
      model::AntennaSpec spec = base;
      spec.rho = geom::deg_to_rad(deg);
      std::ostringstream label;
      label << deg;
      run_point(label.str(), std::vector<model::AntennaSpec>(k, spec));
    }
  } else if (param == "capacity") {
    const std::size_t k = std::max<std::size_t>(inst.num_antennas(), 1);
    for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      model::AntennaSpec spec = base;
      spec.capacity = base.capacity * scale;
      std::ostringstream label;
      label << scale;
      run_point(label.str(), std::vector<model::AntennaSpec>(k, spec));
    }
  } else {
    throw UsageError("unknown --param (use k|rho|capacity)");
  }
  return 0;
}

int cmd_info(const Args& args) {
  require_known(args, {"in"});
  const model::Instance inst = load_instance(args);
  std::cout << "customers        " << inst.num_customers() << "\n";
  std::cout << "antennas         " << inst.num_antennas() << "\n";
  std::cout << "total demand     " << inst.total_demand() << "\n";
  std::cout << "total value      " << inst.total_value() << "\n";
  std::cout << "value-weighted   "
            << (inst.is_value_weighted() ? "yes" : "no") << "\n";
  std::cout << "total capacity   " << inst.total_capacity() << "\n";
  std::cout << "angles-only      " << (inst.is_angles_only() ? "yes" : "no")
            << "\n";
  std::cout << "identical specs  "
            << (inst.antennas_identical() ? "yes" : "no") << "\n";
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    const model::AntennaSpec& a = inst.antenna(j);
    std::cout << "  antenna " << j << ": rho="
              << geom::rad_to_deg(a.rho) << "deg range=" << a.range
              << " capacity=" << a.capacity;
    if (a.min_range > 0.0) std::cout << " min_range=" << a.min_range;
    std::cout << "\n";
  }
  return 0;
}

/// SIGINT -> cooperative drain: `batch` and `serve` root their deadlines on
/// this flag, so the solves in flight read it at their next check, and
/// still write one response per line. Static, so it outlives every
/// deadline. A lock-free atomic store is async-signal-safe.
std::atomic<bool> g_interrupt{false};

/// Upper bounds on the size flags of `batch` and `serve` (docs/serving.md).
/// Each is far above any useful setting and far below what wraps or
/// exhausts memory: --jobs starts that many pump threads, --slo-window
/// allocates a 16-byte ring slot per request up front, and the batch
/// engine adds --queue-capacity to its reorder window.
constexpr unsigned kMaxJobs = 256;
constexpr std::size_t kMaxSloWindow = std::size_t{1} << 20;
constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 20;

/// The flags `batch` and `serve` share beyond --time-limit: SIGINT drains
/// through g_interrupt, and --slo-window must be at least 1.
template <typename Config>
void jsonl_flags(const Args& args, Config& config) {
  config.interrupt = &g_interrupt;
  config.slo_window =
      args.get_bounded("slo-window", config.slo_window, kMaxSloWindow);
  if (config.slo_window == 0) {
    throw UsageError("--slo-window must be >= 1 requests");
  }
}

/// Runs one JSONL front end: `run(in, out)` on `in_path` and `out_path`
/// ("-" = stdin/stdout) with SIGINT routed to g_interrupt, then checks the
/// output stream. Returns run's report.
template <typename Run>
auto run_jsonl(const std::string& in_path, const std::string& out_path,
               Run run) {
  std::ifstream fin;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    fin.open(in_path);
    if (!fin) throw std::runtime_error("cannot open " + in_path);
    in = &fin;
  }
  std::ofstream fout;
  std::ostream* out = &std::cout;
  if (out_path != "-") {
    fout.open(out_path);
    if (!fout) throw std::runtime_error("cannot open " + out_path);
    out = &fout;
  }

  using SignalHandler = void (*)(int);
  const SignalHandler previous = std::signal(
      SIGINT, [](int) { g_interrupt.store(true, std::memory_order_relaxed); });
  const auto report = run(*in, *out);
  if (previous != SIG_ERR) std::signal(SIGINT, previous);

  out->flush();
  if (!*out) throw std::runtime_error("error writing " + out_path);
  return report;
}

int cmd_batch(const Args& args) {
  require_known(args, {"in", "out", "jobs", "time-limit", "cache-entries",
                       "queue-capacity", "stats", "trace-out", "metrics-out",
                       "metrics-jsonl", "metrics-interval", "access-log",
                       "slo-window"});
  srv::BatchConfig config;
  config.jobs = args.get_bounded("jobs", 0U, kMaxJobs);
  config.time_limit = time_limit_flag(args).value_or(config.time_limit);
  config.cache_entries = args.get_size("cache-entries", 128);
  config.queue_capacity =
      args.get_bounded("queue-capacity", std::size_t{0}, kMaxQueueCapacity);
  jsonl_flags(args, config);

  std::ofstream access_log;
  const std::string access_path = args.get("access-log", "");
  if (!access_path.empty()) {
    access_log.open(access_path, std::ios::trunc);
    if (!access_log) throw std::runtime_error("cannot open " + access_path);
    config.access_log = &access_log;
  }

  const std::string in_path = args.get("in", "");
  if (in_path.empty()) {
    throw UsageError("--in <requests.jsonl> is required ('-' for stdin)");
  }
  const srv::BatchReport report = run_jsonl(
      in_path, args.get("out", "-"),
      [&config](std::istream& in, std::ostream& out) {
        return srv::run_batch(in, out, config);
      });
  if (!access_path.empty()) {
    access_log.flush();
    if (!access_log) throw std::runtime_error("error writing " + access_path);
  }
  std::cerr << "batch " << report.to_string() << "\n";
  return 0;
}

int cmd_serve(const Args& args) {
  require_known(args, {"in", "out", "time-limit", "max-sessions", "stats",
                       "trace-out", "metrics-out", "metrics-jsonl",
                       "metrics-interval", "slo-window"});
  srv::ServeConfig config;
  config.time_limit = time_limit_flag(args).value_or(config.time_limit);
  config.max_sessions = args.get_size("max-sessions", config.max_sessions);
  if (config.max_sessions == 0) {
    throw UsageError("--max-sessions must be >= 1");
  }
  jsonl_flags(args, config);

  const srv::ServeReport report = run_jsonl(
      args.get("in", "-"), args.get("out", "-"),
      [&config](std::istream& in, std::ostream& out) {
        return srv::run_serve(in, out, config);
      });
  std::cerr << "serve " << report.to_string() << "\n";
  return 0;
}

int usage() {
  std::cerr <<
      "usage: sectorpack <command> [options]\n"
      "commands:\n"
      "  generate  --n N --k K --spatial uniform|hotspots|ring|arcband\n"
      "            --demand unit|uniform-int|pareto --rho-deg D\n"
      "            --capacity-fraction F --seed S -o FILE\n"
      "  solve     --in FILE --solver " << srv::solver_family_names("|") <<
      "\n"
      "            [--portfolio F1,F2,...] (race only; default\n"
      "             greedy,local-search,annealing)\n"
      "            [--spatial flat|index|auto]\n"
      "            [--time-limit SEC] [-o FILE] [--svg FILE]\n"
      "            [--stats json|text] [--trace-out FILE]\n"
      "            [--metrics-out FILE] [--metrics-jsonl FILE]\n"
      "            [--metrics-interval SEC]\n"
      "            (on expiry: best solution so far, status\n"
      "             budget_exhausted, still exit 0)\n"
      "  batch     --in requests.jsonl --out responses.jsonl [--jobs N]\n"
      "            [--time-limit SEC] [--cache-entries M]\n"
      "            [--queue-capacity Q] [--stats json|text]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "            [--metrics-jsonl FILE] [--metrics-interval SEC]\n"
      "            [--access-log FILE] [--slo-window W]\n"
      "            (one JSON response per request, input order; SIGINT\n"
      "            drains gracefully; --metrics-out rewrites a Prometheus\n"
      "            exposition every interval, --access-log appends one\n"
      "            JSONL line per request; see docs/serving.md)\n"
      "  serve     --in ops.jsonl --out responses.jsonl\n"
      "            [--time-limit SEC] [--max-sessions M]\n"
      "            [--slo-window W] [--stats json|text]\n"
      "            [--trace-out FILE] [--metrics-out FILE]\n"
      "            [--metrics-jsonl FILE] [--metrics-interval SEC]\n"
      "            (session daemon: register an instance once, stream\n"
      "            customer_add/customer_remove/demand_set/antenna_add\n"
      "            deltas, get an incrementally re-solved answer per op --\n"
      "            byte-identical to a from-scratch solve; SIGINT drains;\n"
      "            see docs/serving.md \"Session protocol\")\n"
      "  validate  --in FILE --solution FILE\n"
      "  verify    --in FILE --solution FILE   (named-invariant check:\n"
      "            shape, alpha-normalized, assign-range,\n"
      "            sector-containment, capacity, demand-conservation,\n"
      "            status; exit 1 lists each violated invariant)\n"
      "  bound     --in FILE [--time-limit SEC] [--stats json|text]\n"
      "            [--trace-out FILE]\n"
      "  cover     --in FILE --algo greedy|nextfit|exact [--max-k K]\n"
      "            [--stats json|text] [--trace-out FILE]\n"
      "  render    --in FILE [--solution FILE] -o FILE.svg\n"
      "  sweep     --in FILE --param k|rho|capacity [--max K]  (CSV)\n"
      "  info      --in FILE\n"
      "  --version print the version and exit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "--version" || args.command == "version") {
      std::cout << "sectorpack " << SECTORPACK_VERSION << "\n";
      return 0;
    }
    if (args.command == "generate") return cmd_generate(args);
    if (args.command == "solve") return with_observability(args, cmd_solve);
    if (args.command == "batch") return with_observability(args, cmd_batch);
    if (args.command == "serve") return with_observability(args, cmd_serve);
    if (args.command == "validate") return cmd_validate(args);
    if (args.command == "verify") return cmd_verify(args);
    if (args.command == "bound") return with_observability(args, cmd_bound);
    if (args.command == "cover") return with_observability(args, cmd_cover);
    if (args.command == "render") return cmd_render(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command.empty()) return usage();
    std::cerr << "error: unknown command '" << args.command
              << "' (run 'sectorpack' with no arguments for usage)\n";
    return 2;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what()
              << " (run 'sectorpack' with no arguments for usage)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
