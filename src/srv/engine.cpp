#include "src/srv/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/bench_util/timer.hpp"
#include "src/core/sync.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/trace.hpp"
#include "src/par/bounded_queue.hpp"
#include "src/par/parallel_for.hpp"
#include "src/race/race.hpp"
#include "src/srv/cache.hpp"
#include "src/srv/drain.hpp"
#include "src/srv/jsonl.hpp"
#include "src/srv/solvers.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::srv {

const char* to_string(RequestStatus status) noexcept {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kBudgetExhausted: return "budget_exhausted";
    case RequestStatus::kInvalid: return "invalid";
    case RequestStatus::kRejected: return "rejected";
  }
  return "unknown";
}

bool is_known_solver(const std::string& family) noexcept {
  return find_solver_family(family) != nullptr;
}

model::Solution run_solver(const model::Instance& inst, const SolverKey& key,
                           const core::SolveOptions& opts) {
  const SolverFamily* family = find_solver_family(key.family);
  if (family == nullptr) {
    throw std::invalid_argument("unknown solver: " + key.family);
  }
  return family->run(inst, key, opts);
}

QualityRecorder::QualityRecorder(std::span<const SolverFamily> families)
    : gap_(obs::hdr_histogram("quality.gap_permille")) {
  for (const SolverFamily& family : families) {
    const std::string prefix = std::string("quality.") + family.name;
    families_.push_back({family.name, obs::counter(prefix + ".solves"),
                         obs::counter(prefix + ".gap_permille_sum")});
  }
}

void QualityRecorder::record(const model::Instance& inst,
                             std::string_view family, double served) const {
  if (!obs::enabled()) return;
  // The clamp guards rounding noise when served == bound.
  const double bound = bounds::trivial_bound(inst);
  const double gap =
      bound > 0.0 ? std::clamp(1000.0 * (bound - served) / bound, 0.0, 1000.0)
                  : 0.0;
  gap_.observe(gap);
  for (const Family& f : families_) {
    if (f.name == family) {
      f.solves.inc();
      f.gap_sum.add(static_cast<std::uint64_t>(std::llround(gap)));
    }
  }
}

Request parse_solve_fields(const JsonObject& object) {
  Request req;
  req.instance_file = optional_string_field(object, "instance_file");
  req.instance_text = optional_string_field(object, "instance");
  if (req.instance_file.empty() == req.instance_text.empty()) {
    throw std::runtime_error(
        "exactly one of 'instance_file' and 'instance' is required");
  }

  const std::string family = optional_string_field(object, "solver");
  if (!family.empty()) req.solver.family = family;
  if (!is_known_solver(req.solver.family)) {
    throw std::runtime_error("unknown solver '" + req.solver.family + "'");
  }

  if (const JsonValue* seed = find_field(object, "seed")) {
    if (seed->kind != JsonValue::Kind::kNumber) {
      throw std::runtime_error("field 'seed' must be a number");
    }
    req.solver.seed = require_integer("seed", seed->number);
  }
  if (const JsonValue* iters = find_field(object, "iterations")) {
    if (iters->kind != JsonValue::Kind::kNumber) {
      throw std::runtime_error("field 'iterations' must be a number");
    }
    req.solver.iterations = require_integer("iterations", iters->number);
  }
  if (const JsonValue* portfolio = find_field(object, "portfolio")) {
    if (portfolio->kind != JsonValue::Kind::kString) {
      throw std::runtime_error("field 'portfolio' must be a string");
    }
    if (req.solver.family != "race") {
      throw std::runtime_error(
          "field 'portfolio' requires solver 'race'");
    }
    // Validate at parse time so a bad portfolio is an invalid request, not
    // a per-solve failure after the instance loaded.
    (void)race::parse_portfolio(portfolio->string);
    req.solver.portfolio = portfolio->string;
  }
  req.time_limit = optional_time_limit(object);
  return req;
}

Request parse_request(const std::string& line, std::size_t index) {
  const JsonObject object = parse_flat_object(line);
  for (const auto& [key, value] : object) {
    if (key != "id" && key != "instance" && key != "instance_file" &&
        key != "solver" && key != "seed" && key != "iterations" &&
        key != "portfolio" && key != "time_limit") {
      throw std::runtime_error("unknown request field '" + key + "'");
    }
  }
  std::string id = optional_string_field(object, "id");
  Request req = parse_solve_fields(object);
  req.index = index;
  req.id = std::move(id);
  return req;
}

std::string BatchReport::to_string() const {
  std::ostringstream os;
  os << "requests=" << requests << " ok=" << ok
     << " budget_exhausted=" << budget_exhausted << " invalid=" << invalid
     << " rejected=" << rejected << " cache_hit=" << cache_hits
     << " cache_miss=" << cache_misses << " cache_evicted=" << cache_evictions;
  if (interrupted) os << " interrupted=yes";
  if (!slo_summary.empty()) os << " slo[" << slo_summary << "]";
  return os.str();
}

namespace {

/// Everything one run_batch call needs; the pumps hold a pointer into
/// this, and its lifetime brackets the threads that run them.
class Engine {
 public:
  Engine(std::ostream& out, const BatchConfig& config)
      : out_(out),
        config_(config),
        drain_("batch", config.time_limit, config.interrupt),
        cache_(config.cache_entries),
        slo_(config.slo_window),
        c_ok_(obs::counter("srv.requests.ok")),
        c_budget_(obs::counter("srv.requests.budget_exhausted")),
        c_invalid_(obs::counter("srv.requests.invalid")),
        c_rejected_(obs::counter("srv.requests.rejected")),
        c_cache_mismatch_(obs::counter("srv.cache.mismatch")),
        g_queue_depth_(obs::gauge("srv.queue.depth")),
        g_inflight_(obs::gauge("srv.inflight")),
        h_request_ms_(obs::hdr_histogram("srv.request_ms")),
        h_queue_us_(obs::hdr_histogram("srv.queue_wait_us")),
        quality_(solver_families()) {}

  BatchReport run(std::istream& in) {
    {
      const unsigned workers = par::thread_count(config_.jobs);
      const std::size_t capacity = config_.queue_capacity != 0
                                       ? config_.queue_capacity
                                       : std::size_t{4} * workers;
      queue_ = std::make_unique<par::BoundedQueue<Request>>(capacity);
      // The reorder window bounds completed-but-unemitted responses, so a
      // single slow request cannot make the output buffer grow with the
      // whole input.
      window_ = capacity + std::size_t{2} * workers + 16;

      std::vector<std::jthread> pumps;
      for (unsigned w = 0; w < workers; ++w) {
        pumps.emplace_back([this] { pump(); });
      }

      std::string line;
      while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
          continue;  // blank line: not a request, no response
        }
        const std::size_t index = total_++;
        if (drain_.draining()) {
          complete_unsolved(index, /*id=*/"", RequestStatus::kRejected,
                            drain_.reason());
          continue;
        }
        Request req;
        try {
          req = parse_request(line, index);
        } catch (const std::exception& e) {
          complete_unsolved(index, /*id=*/"", RequestStatus::kInvalid,
                            e.what());
          continue;
        }
        admit(std::move(req));
      }

      queue_->close();
      // The pumps drain the closed queue and leaving the block joins them;
      // after it every admitted request has completed.
    }
    flush_ready();
    // Publish the rolling-window view into `slo.*` gauges so `--stats json`
    // and the exporter's final tick carry it alongside the run totals.
    slo_.publish();
    if (config_.access_log != nullptr) config_.access_log->flush();

    BatchReport report;
    report.requests = total_;
    report.ok = n_ok_;
    report.budget_exhausted = n_budget_;
    report.invalid = n_invalid_;
    report.rejected = n_rejected_;
    report.cache_hits = cache_.hits();
    report.cache_misses = cache_.misses();
    report.cache_evictions = cache_.evictions();
    report.interrupted = drain_.draining();
    report.slo_summary = slo_.summary().to_string();
    return report;
  }

 private:
  // ---------------------------------------------------------------- admission

  void admit(Request req) {
    // Keep the reorder window bounded before handing out new work.
    {
      core::UniqueLock lock(done_mu_);
      while (req.index - next_emit_ >= window_) {
        flush_ready_locked();
        // Predicate-less timed wait on purpose: the enclosing while IS the
        // re-check, and the 50ms bound keeps the window draining even on a
        // missed notify (see core::CondVar).
        done_cv_.wait_for(lock, std::chrono::milliseconds(50));
        // No drain check needed: a drain expires the solves in flight
        // through their deadlines, so the window always drains forward.
      }
    }
    flush_ready();

    const std::size_t index = req.index;
    const std::string id = req.id;
    req.admitted_at = std::chrono::steady_clock::now();
    bool pushed = false;
    while (!pushed && !drain_.draining()) {
      pushed = queue_->try_push_for(req, std::chrono::milliseconds(50));
      g_queue_depth_.set(static_cast<double>(queue_->size()));
    }
    if (!pushed) {
      complete_unsolved(index, id, RequestStatus::kRejected, drain_.reason());
    }
  }

  // ---------------------------------------------------------------- workers

  void pump() {
    Request req;
    while (queue_->pop(req)) {
      g_queue_depth_.set(static_cast<double>(queue_->size()));
      g_inflight_.set(static_cast<double>(
          // sp-sync: relaxed gauge bookkeeping; momentary skew only
          // blurs the srv.inflight gauge, never control flow.
          1 + inflight_count_.fetch_add(1, std::memory_order_relaxed)));
      const std::size_t index = req.index;
      const std::string id = req.id;
      try {
        process(std::move(req));
      } catch (const std::exception& e) {
        // Defensive: process() handles per-request errors itself; anything
        // escaping is an engine bug surfaced as an invalid response rather
        // than a dead pump (an exception leaving a thread terminates).
        complete_unsolved(index, id, RequestStatus::kInvalid,
                          std::string("internal error: ") + e.what());
      }
      g_inflight_.set(static_cast<double>(
          // sp-sync: as above (gauge bookkeeping).
          inflight_count_.fetch_sub(1, std::memory_order_relaxed) - 1));
    }
  }

  void process(Request req) {
    const obs::ScopedSpan span("srv.request");
    const bench_util::Timer timer;
    // Queue wait: admission (admit() stamped the request) to dequeue. A
    // default-constructed stamp means the request never went through
    // admit(), so the wait is unknown and reported as zero.
    const double queue_us =
        req.admitted_at.time_since_epoch().count() == 0
            ? 0.0
            : std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - req.admitted_at)
                  .count();
    h_queue_us_.observe(queue_us);

    if (drain_.draining()) {
      complete_unsolved(req.index, req.id, RequestStatus::kRejected,
                        drain_.reason(), queue_us);
      return;
    }

    model::Instance inst;
    try {
      inst = req.instance_file.empty()
                 ? model::instance_from_string(req.instance_text)
                 : model::read_instance_file(req.instance_file);
    } catch (const std::exception& e) {
      complete_unsolved(req.index, req.id, RequestStatus::kInvalid, e.what(),
                        queue_us);
      return;
    }

    const Fingerprint fp = canonicalize(inst, req.solver).fingerprint;

    if (std::optional<model::Solution> cached = cache_.lookup(fp)) {
      // Shape guard against a fingerprint collision, then the full
      // invariant check against *this* request's instance: a hit must
      // stand on its own, exactly like a fresh solve.
      if (cached->alpha.size() == inst.num_antennas() &&
          cached->assign.size() == inst.num_customers() &&
          verify::verify_solution(inst, *cached).ok) {
        verify::debug_postcondition(inst, *cached, "srv::batch(cache-hit)");
        complete_solved(req, inst, fp, std::move(*cached),
                        /*cache_hit=*/true, timer.elapsed_ms(), queue_us);
        return;
      }
      // Collision: never serve it; solve fresh.
      c_cache_mismatch_.inc();
    }

    // The request's budget, clamped under the global one; an interrupt
    // expires it mid-solve.
    model::Solution sol;
    std::string error;
    try {
      sol = run_solver(inst, req.solver, drain_.arm(req.time_limit));
    } catch (const std::exception& e) {
      error = e.what();  // e.g. exact-solver tuple-space overflow
    }
    if (!error.empty()) {
      complete_unsolved(req.index, req.id, RequestStatus::kInvalid, error,
                        queue_us);
      return;
    }

    verify::debug_postcondition(inst, sol, "srv::batch(fresh)");
    if (sol.status == model::SolveStatus::kComplete) cache_.insert(fp, sol);
    complete_solved(req, inst, fp, std::move(sol), /*cache_hit=*/false,
                    timer.elapsed_ms(), queue_us);
  }

  // --------------------------------------------------------------- responses

  void complete_solved(const Request& req, const model::Instance& inst,
                       const Fingerprint& fp, model::Solution sol,
                       bool cache_hit, double elapsed_ms, double queue_us) {
    const RequestStatus status =
        sol.status == model::SolveStatus::kComplete
            ? RequestStatus::kOk
            : RequestStatus::kBudgetExhausted;
    const double served = served_value(inst, sol);
    std::string line = "{\"index\":" + std::to_string(req.index);
    if (!req.id.empty()) line += ",\"id\":\"" + obs::json_escape(req.id) + "\"";
    line += ",\"status\":\"";
    line += to_string(status);
    line += "\",\"solver\":\"" + obs::json_escape(req.solver.family) + "\"";
    line += cache_hit ? ",\"cache\":\"hit\"" : ",\"cache\":\"miss\"";
    line += ",\"fingerprint\":\"" + fp.to_hex() + "\"";
    line += ",\"served_value\":" + obs::json_number(served);
    line += ",\"solve_ms\":" + obs::json_number(elapsed_ms);
    line += ",\"solution\":\"";
    model::append_solution_escaped(line, sol);
    line += "\"}";
    h_request_ms_.observe(elapsed_ms);
    // Cache hits are recorded as their own kind so their near-zero
    // latencies never dilute the solve percentiles (docs/observability.md
    // "SLO tracker" documents the semantics).
    slo_.record(elapsed_ms, /*deadline_ok=*/status == RequestStatus::kOk,
                cache_hit ? obs::SloKind::kCacheHit : obs::SloKind::kSolve);

    quality_.record(inst, req.solver.family, served);

    std::string access;
    if (config_.access_log != nullptr) {
      std::ostringstream al;
      al << "{\"index\":" << req.index << ",\"id\":\""
         << obs::json_escape(req.id) << "\""
         << ",\"status\":\"" << to_string(status) << "\""
         << ",\"solver\":\"" << obs::json_escape(req.solver.family) << "\""
         << ",\"cache\":\"" << (cache_hit ? "hit" : "miss") << "\""
         << ",\"fingerprint\":\"" << fp.to_hex() << "\""
         << ",\"queue_us\":" << obs::json_number(queue_us)
         << ",\"solve_us\":" << obs::json_number(elapsed_ms * 1000.0)
         << ",\"deadline_budget_ms\":"
         << (req.time_limit >= 0.0
                 ? obs::json_number(req.time_limit * 1000.0)
                 : std::string("null"))
         << ",\"deadline_used_ms\":" << obs::json_number(elapsed_ms) << "}";
      access = al.str();
    }
    complete(req.index, status, std::move(line), std::move(access));
  }

  void complete_unsolved(std::size_t index, const std::string& id,
                         RequestStatus status, const std::string& error,
                         double queue_us = 0.0) {
    // A rejected request is a deadline miss from the client's point of view
    // -- it asked and got no answer -- so it must drag deadline_hit_rate
    // down. Invalid requests are client errors, not service failures, and
    // are deliberately not recorded.
    if (status == RequestStatus::kRejected) {
      slo_.record(0.0, /*deadline_ok=*/false, obs::SloKind::kRejected);
    }
    std::ostringstream os;
    os << "{\"index\":" << index;
    if (!id.empty()) os << ",\"id\":\"" << obs::json_escape(id) << "\"";
    os << ",\"status\":\"" << to_string(status) << "\""
       << ",\"error\":\"" << obs::json_escape(error) << "\"}";
    std::string access;
    if (config_.access_log != nullptr) {
      std::ostringstream al;
      al << "{\"index\":" << index << ",\"id\":\"" << obs::json_escape(id)
         << "\""
         << ",\"status\":\"" << to_string(status) << "\""
         << ",\"error\":\"" << obs::json_escape(error) << "\""
         << ",\"queue_us\":" << obs::json_number(queue_us) << "}";
      access = al.str();
    }
    complete(index, status, os.str(), std::move(access));
  }

  void complete(std::size_t index, RequestStatus status, std::string line,
                std::string access) {
    switch (status) {
      case RequestStatus::kOk: ++n_ok_; c_ok_.inc(); break;
      case RequestStatus::kBudgetExhausted: ++n_budget_; c_budget_.inc(); break;
      case RequestStatus::kInvalid: ++n_invalid_; c_invalid_.inc(); break;
      case RequestStatus::kRejected: ++n_rejected_; c_rejected_.inc(); break;
    }
    {
      const core::LockGuard lock(done_mu_);
      done_.emplace(index, Done{std::move(line), std::move(access)});
    }
    done_cv_.notify_all();
  }

  /// Write every response whose turn has come (responses are emitted in
  /// input order; out-of-order completions wait in done_).
  void flush_ready() {
    const core::LockGuard lock(done_mu_);
    flush_ready_locked();
  }

  void flush_ready_locked() SP_REQUIRES(done_mu_) {
    auto it = done_.find(next_emit_);
    while (it != done_.end()) {
      out_ << it->second.response << "\n";
      // The access log is written by this reorder/emit stage so its line
      // order always matches the response order, worker timing aside.
      if (config_.access_log != nullptr) {
        *config_.access_log << it->second.access << "\n";
      }
      done_.erase(it);
      ++next_emit_;
      it = done_.find(next_emit_);
    }
  }

  std::ostream& out_;
  const BatchConfig config_;
  Drain drain_;
  ResultCache cache_;

  std::unique_ptr<par::BoundedQueue<Request>> queue_;
  std::size_t window_ = 0;
  std::size_t total_ = 0;

  /// One completed request waiting in the reorder buffer: its response
  /// line plus (when enabled) its access-log line, emitted together.
  struct Done {
    std::string response;
    std::string access;
  };

  core::Mutex done_mu_;
  core::CondVar done_cv_;
  std::map<std::size_t, Done> done_ SP_GUARDED_BY(done_mu_);
  std::size_t next_emit_ SP_GUARDED_BY(done_mu_) = 0;

  std::atomic<std::size_t> n_ok_{0};
  std::atomic<std::size_t> n_budget_{0};
  std::atomic<std::size_t> n_invalid_{0};
  std::atomic<std::size_t> n_rejected_{0};
  std::atomic<std::size_t> inflight_count_{0};

  obs::SloTracker slo_;
  obs::Counter c_ok_;
  obs::Counter c_budget_;
  obs::Counter c_invalid_;
  obs::Counter c_rejected_;
  obs::Counter c_cache_mismatch_;
  obs::Gauge g_queue_depth_;
  obs::Gauge g_inflight_;
  obs::HdrHistogram h_request_ms_;
  obs::HdrHistogram h_queue_us_;
  QualityRecorder quality_;
};

}  // namespace

BatchReport run_batch(std::istream& in, std::ostream& out,
                      const BatchConfig& config) {
  Engine engine(out, config);
  return engine.run(in);
}

}  // namespace sectorpack::srv
