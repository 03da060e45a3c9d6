// batch_mix: srv::run_batch with jobs = 4 over a request stream that is
// all available up front (offline). 96 generated instances of 250..2000
// customers, every sim::Spatial shape, 3..6 antennas; half saturating (race
// stops after its greedy lane), half with spare capacity and narrow beams
// (race starts its Phase-B lanes). 250 requests over greedy, local-search,
// uniform, annealing and race with no time limit: 150 distinct keys, more
// than the result cache's 128 entries, and 100 exact resubmissions, each
// of which hits the cache. The only workload that exercises the engine,
// fingerprinting, the result cache, race lanes and par pools.
//
// Timed run: whole passes of the stream through run_batch, measured from
// outside by the line-timestamping streams. Traced run: Engine::process's
// per-request sequence replayed on one thread with spans, then run_batch
// passes with the access log on for queue wait and worker busy time.

#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "process.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/cache.hpp"
#include "src/srv/engine.hpp"
#include "src/srv/fingerprint.hpp"
#include "src/srv/jsonl.hpp"
#include "src/verify/verify.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace model = sectorpack::model;
namespace srv = sectorpack::srv;
namespace core = sectorpack::core;

namespace {

constexpr unsigned kJobs = 4;
// Requests the set-up's warm-up pass runs: enough to start the pools and
// grow the heap, a sixth of a full pass.
constexpr std::size_t kWarmUpRequests = 40;

struct Stream {
  std::vector<std::string> files;  // instance index -> absolute path
  std::vector<std::string> lines;  // request lines
  BatchMix mix;
};

Stream set_up(const Context& ctx) {
  Stream s;
  s.mix = batch_mix_input(ctx.seed);
  for (std::size_t i = 0; i < s.mix.instances.size(); ++i) {
    const fs::path path =
        fs::absolute(ctx.work / ("i" + std::to_string(i) + ".inst"));
    write_file(path, model::to_string(s.mix.instances[i]));
    s.files.push_back(path.string());
  }
  for (std::size_t r = 0; r < s.mix.requests.size(); ++r) {
    const BatchMix::Request& req = s.mix.requests[r];
    s.lines.push_back(request_line(r, s.files[req.instance], req));
  }
  return s;
}

/// One run_batch pass, measured from outside.
struct Pass {
  std::vector<std::string> responses;
  std::vector<Clock::time_point> taken;
  std::vector<Clock::time_point> written;
  std::string access_log;
};

Pass run_pass(const std::vector<std::string>& lines, bool access_log) {
  Pass pass;
  std::size_t next = 0;
  LineFeed feed([&](std::string& line) {
    if (next == lines.size()) return false;
    line = lines[next++];
    return true;
  });
  LineStamp stamp([&](std::size_t, std::string_view line) {
    pass.responses.emplace_back(line);
  });
  std::istream in(&feed);
  std::ostream out(&stamp);
  std::ostringstream log;
  srv::BatchConfig config;
  config.jobs = kJobs;
  if (access_log) config.access_log = &log;
  (void)srv::run_batch(in, out, config);
  pass.taken = feed.taken();
  pass.written = stamp.written();
  pass.access_log = log.str();
  return pass;
}

/// Checks answers per (instance, solver) key. The first answer seen for a
/// key must pass every verify invariant, and for a fixed sample of keys
/// (every kSampleEvery-th instance) equal srv::run_solver's output byte for
/// byte; every later answer for the key (a resubmission, a cache hit,
/// another pass) must equal the first.
class Answers {
 public:
  static constexpr std::size_t kSampleEvery = 4;

  explicit Answers(const Stream& s) : s_(s), instances_(s.files.size()) {}

  /// The failure for request `r`'s answer, or an empty string.
  std::string check(std::size_t r, const std::string& solution) {
    const BatchMix::Request& req = s_.mix.requests[r];
    const std::string where = "batch_mix request " + std::to_string(r) + ": ";
    const auto key = std::make_pair(req.instance, req.solver);
    if (const auto it = seen_.find(key); it != seen_.end()) {
      return solution == it->second.text
                 ? std::string()
                 : where + "answer differs from an earlier one for its key";
    }
    const model::Instance& inst = instance(req.instance);
    const model::Solution sol = model::solution_from_string(solution);
    const sectorpack::verify::VerifyReport report =
        sectorpack::verify::verify_solution(inst, sol);
    if (!report.ok) return where + report.to_string();
    if (req.instance % kSampleEvery == 0 &&
        solution != model::to_string(srv::run_solver(
                        inst, srv::SolverKey{req.solver, 1, req.iterations, ""},
                        {}))) {
      return where + "answer differs from srv::run_solver";
    }
    seen_.emplace(key, Seen{solution,
                            ratio(model::served_value(inst, sol),
                                  sectorpack::bounds::trivial_bound(inst))});
    return {};
  }

  /// served value / trivial_bound of request `r`'s (checked) answer.
  [[nodiscard]] double served_ratio(std::size_t r) const {
    const BatchMix::Request& req = s_.mix.requests[r];
    return seen_.at(std::make_pair(req.instance, req.solver)).served_ratio;
  }

 private:
  struct Seen {
    std::string text;
    double served_ratio = 0.0;
  };

  const model::Instance& instance(std::size_t i) {
    if (!instances_[i]) {
      instances_[i] = model::read_instance_file(s_.files[i]);
    }
    return *instances_[i];
  }

  const Stream& s_;
  std::vector<std::optional<model::Instance>> instances_;
  std::map<std::pair<std::size_t, std::string>, Seen> seen_;
};

/// Checks every response of a pass; returns the summed served ratio.
double check_pass(RunResult& result, const Stream& s, Answers& answers,
                  const Pass& pass) {
  double served = 0.0;
  if (pass.responses.size() != s.lines.size()) {
    result.check_failed("batch_mix: " + std::to_string(pass.responses.size()) +
                        " responses to " + std::to_string(s.lines.size()) +
                        " requests");
  }
  for (std::size_t i = 0; i < pass.responses.size(); ++i) {
    const srv::JsonObject obj = srv::parse_flat_object(pass.responses[i]);
    const auto field = [&](const char* name) {
      const auto it = obj.find(name);
      return it == obj.end() ? std::string() : it->second.string;
    };
    if (field("status") != "ok") {
      result.op_failed("batch_mix request " + std::to_string(i) + ": status " +
                       field("status") + " " + field("error"));
      continue;
    }
    const std::string failure = answers.check(i, field("solution"));
    if (!failure.empty()) {
      result.op_failed(failure);
      continue;
    }
    result.op(true);
    served += answers.served_ratio(i);
  }
  return served;
}

RunResult timed(const Context& ctx) {
  RunResult result;
  EndToEnd e2e;
  Stream s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    e2e.setup_s.push_back(seconds_of([&] {
      s = set_up(ctx);
      (void)run_pass({s.lines.begin(), s.lines.begin() + kWarmUpRequests},
                     false);
    }));
  }

  Answers answers(s);
  double busy_ms = 0.0;
  double served = 0.0;
  std::size_t answered = 0;
  reset_peak_rss();
  while (busy_ms < 1e3 * ctx.seconds) {
    const Pass pass = run_pass(s.lines, false);
    e2e.peak_rss_mb = std::max(e2e.peak_rss_mb, self_peak_rss_mb());
    ++e2e.rss_samples;
    const double wall_ms = ms_between(pass.taken.front(), pass.written.back());
    busy_ms += wall_ms;
    e2e.ops_per_s.push_back(
        ratio(static_cast<double>(pass.responses.size()), wall_ms / 1e3));
    for (std::size_t i = 0;
         i < pass.written.size() && i < pass.taken.size(); ++i) {
      e2e.latency_ms.push_back(ms_between(pass.taken[i], pass.written[i]));
    }
    served += check_pass(result, s, answers, pass);
    answered += pass.responses.size();
  }
  e2e.served_ratio = ratio(served, static_cast<double>(answered));
  e2e.served_samples = answered;
  add_end_to_end(result, e2e);
  return result;
}

/// Engine::process for one request, on this thread: parse, read,
/// canonicalize, cache lookup; on a hit project and verify, on a miss solve
/// and insert; then build the response line.
struct Replayed {
  std::string response;
  std::string solution;
  bool hit = false;
};

Replayed process(Recorder& rec, srv::ResultCache& cache,
                 const std::string& line, std::size_t index) {
  srv::Request req;
  {
    const auto s = rec.span("srv.parse_request");
    req = srv::parse_request(line, index);
  }
  model::Instance inst;
  {
    const auto s = rec.span("model.read");
    inst = model::read_instance_file(req.instance_file);
  }
  srv::CanonicalInstance canon;
  {
    const auto s = rec.span("srv.canonicalize");
    canon = srv::canonicalize(inst, req.solver);
  }
  std::optional<model::Solution> cached;
  {
    const auto s = rec.span("srv.cache");
    cached = cache.lookup(canon.fingerprint);
  }
  Replayed out;
  model::Solution sol;
  if (cached && cached->alpha.size() == inst.num_antennas() &&
      cached->assign.size() == inst.num_customers()) {
    {
      const auto s = rec.span("srv.project");
      sol = srv::from_canonical(canon, *cached);
    }
    const auto s = rec.span("verify.check");
    out.hit = sectorpack::verify::verify_solution(inst, sol).ok;
  }
  if (!out.hit) {
    const core::Deadline deadline =
        core::Deadline::after_at_most(req.time_limit, core::Deadline::never());
    {
      const auto s = rec.span(req.solver.family == "race" ? "race.solve"
                                                          : "sectors.solve");
      sol = srv::run_solver(inst, req.solver, core::SolveOptions{deadline});
    }
    model::Solution canonical;
    {
      const auto s = rec.span("srv.project");
      canonical = srv::to_canonical(canon, sol);
    }
    const auto s = rec.span("srv.cache");
    cache.insert(canon.fingerprint, std::move(canonical));
  }
  const auto s = rec.span("srv.reply");
  const double served = model::served_value(inst, sol);
  {
    const auto w = rec.span("model.write");
    out.solution = model::to_string(sol);
  }
  std::string escaped;
  {
    const auto e = rec.span("srv.escape");
    escaped = sectorpack::obs::json_escape(out.solution);
  }
  std::ostringstream os;
  os << "{\"index\":" << req.index << ",\"id\":\""
     << sectorpack::obs::json_escape(req.id) << "\",\"status\":\"ok\""
     << ",\"solver\":\"" << sectorpack::obs::json_escape(req.solver.family)
     << "\",\"cache\":\"" << (out.hit ? "hit" : "miss")
     << "\",\"fingerprint\":\"" << canon.fingerprint.to_hex()
     << "\",\"served_value\":" << sectorpack::obs::json_number(served)
     << ",\"solution\":\"" << escaped << "\"}";
  out.response = os.str();
  return out;
}

/// Reads `"name":<number>` from an access-log line.
double log_number(const std::string& line, const char* name) {
  const std::string key = std::string("\"") + name + "\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0.0;
  return std::stod(line.substr(at + key.size()));
}

RunResult traced(const Context& ctx) {
  RunResult result;
  const Stream s = set_up(ctx);
  Answers answers(s);

  // The untraced replay covers the first half of the stream, after one
  // unmeasured pass over it (the instance files' first reads and the
  // allocator's first growth would otherwise land on the untraced side);
  // the tracing overhead compares it with the same ops traced.
  const std::size_t half = s.lines.size() / 2;
  Layers layers;
  for (int pass = 0; pass < 2; ++pass) {
    Recorder off(false);
    srv::ResultCache cache(128);
    for (std::size_t i = 0; i < half; ++i) {
      const double ms = 1e3 * seconds_of([&] {
        (void)process(off, cache, s.lines[i], i);
      });
      if (pass == 1) layers.untraced_op_ms.push_back(ms);
    }
  }

  sectorpack::obs::set_enabled(true);
  Recorder rec;
  srv::ResultCache cache(128);
  Counters total;
  std::size_t race_solved = 0;
  std::size_t race_phase_b = 0;
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    Replayed r;
    const TracedOp t = traced_op(rec, static_cast<std::uint32_t>(i), total,
                                 [&] { r = process(rec, cache, s.lines[i], i); });
    if (i < half) layers.traced_op_ms.push_back(t.ms);
    const BatchMix::Request& req = s.mix.requests[i];
    rec.annotate(t.span, "\"solver\":\"" + req.solver + "\",\"instance\":" +
                             std::to_string(req.instance) + ",\"customers\":" +
                             std::to_string(
                                 s.mix.instances[req.instance].num_customers()) +
                             ",\"hit\":" + (r.hit ? "true," : "false,") +
                             counters_json(t.delta));
    if (req.solver == "race" && !r.hit) {
      ++race_solved;
      // Phase B hands the greedy seed to the seedable lanes it starts.
      if (count_of(t.delta, "race.exchange_adoptions") > 0) ++race_phase_b;
    }
    const std::string failure = answers.check(i, r.solution);
    if (failure.empty()) {
      result.op(true);
    } else {
      result.op_failed(failure);
    }
  }
  sectorpack::obs::set_enabled(false);

  // The concurrent engine with its access log (obs off, as users run it):
  // queue wait, service time and worker busy time, over enough passes for
  // a supported p99.
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  double busy_ms = 0.0;
  double wall_ms = 0.0;
  while (!percentile_supported(queue_ms.size(), 0.99)) {
    const Pass pass = run_pass(s.lines, true);
    wall_ms += ms_between(pass.taken.front(), pass.written.back());
    std::istringstream log(pass.access_log);
    for (std::string line; std::getline(log, line);) {
      queue_ms.push_back(log_number(line, "queue_us") / 1e3);
      service_ms.push_back(log_number(line, "solve_us") / 1e3);
      busy_ms += service_ms.back();
    }
    (void)check_pass(result, s, answers, pass);
  }

  layers.table = layer_table(rec);
  add_solver_counters(layers, total, s.lines.size());
  const std::size_t lookups = cache.hits() + cache.misses();
  layers.extra["srv.cache_hit_ratio"] = {
      ratio(static_cast<double>(cache.hits()), static_cast<double>(lookups)),
      lookups};
  layers.extra["race.phase_b_frac"] = {
      ratio(static_cast<double>(race_phase_b),
            static_cast<double>(race_solved)),
      race_solved};
  layers.extra["srv.queue_wait_p50_ms"] = {percentile(queue_ms, 0.5),
                                           queue_ms.size()};
  layers.extra["srv.queue_wait_p99_ms"] = {percentile(queue_ms, 0.99),
                                           queue_ms.size()};
  layers.extra["srv.service_p99_ms"] = {percentile(service_ms, 0.99),
                                        service_ms.size()};
  layers.extra["srv.worker_busy_frac"] = {ratio(busy_ms, kJobs * wall_ms),
                                          service_ms.size()};
  add_per_layer(result, layers);
  std::cout << "race: " << race_phase_b << " of " << race_solved
            << " solved race requests started Phase B\n";
  dump_trace(ctx, "batch_mix", rec);
  return result;
}

}  // namespace

RunResult run_batch_mix(const Context& ctx) {
  return ctx.trace ? traced(ctx) : timed(ctx);
}

}  // namespace perfbench
