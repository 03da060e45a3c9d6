#include "src/srv/serve.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/bench_util/timer.hpp"
#include "src/core/deadline.hpp"
#include "src/model/io.hpp"
#include "src/model/solution.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/trace.hpp"
#include "src/srv/drain.hpp"
#include "src/srv/engine.hpp"
#include "src/srv/jsonl.hpp"
#include "src/srv/session.hpp"

namespace sectorpack::srv {

namespace {

double require_number_field(const JsonObject& object, const char* name) {
  const JsonValue* v = find_field(object, name);
  if (v == nullptr) {
    throw std::runtime_error(std::string("missing field '") + name + "'");
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error(std::string("field '") + name +
                             "' must be a number");
  }
  return v->number;
}

void check_fields(const JsonObject& object,
                  std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : object) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::runtime_error("unknown field '" + key + "' for this op");
    }
  }
}

}  // namespace

ServeOp parse_serve_op(const std::string& line, std::size_t index) {
  const JsonObject object = parse_flat_object(line);

  ServeOp op;
  op.index = index;
  op.op = optional_string_field(object, "op");
  if (op.op.empty()) throw std::runtime_error("missing field 'op'");
  op.id = optional_string_field(object, "id");
  op.session = optional_string_field(object, "session");

  op.time_limit = optional_time_limit(object);

  if (op.op == "register") {
    check_fields(object, {"op", "id", "time_limit", "instance",
                          "instance_file", "solver", "seed", "iterations",
                          "portfolio"});
    Request req = parse_solve_fields(object);
    op.instance_file = std::move(req.instance_file);
    op.instance_text = std::move(req.instance_text);
    op.solver = std::move(req.solver);
    return op;
  }

  // Every non-register op targets a session.
  if (op.session.empty()) throw std::runtime_error("missing field 'session'");

  if (op.op == "customer_add") {
    check_fields(object, {"op", "id", "time_limit", "session", "x", "y",
                          "demand", "value"});
    op.customer_rec.pos = {require_number_field(object, "x"),
                           require_number_field(object, "y")};
    op.customer_rec.demand = require_number_field(object, "demand");
    if (find_field(object, "value") != nullptr) {
      op.customer_rec.value = require_number_field(object, "value");
    }
    return op;
  }
  if (op.op == "customer_remove") {
    check_fields(object, {"op", "id", "time_limit", "session", "customer"});
    op.customer = static_cast<std::size_t>(require_integer(
        "customer", require_number_field(object, "customer")));
    return op;
  }
  if (op.op == "demand_set") {
    check_fields(object,
                 {"op", "id", "time_limit", "session", "customer", "demand"});
    op.customer = static_cast<std::size_t>(require_integer(
        "customer", require_number_field(object, "customer")));
    op.demand = require_number_field(object, "demand");
    return op;
  }
  if (op.op == "antenna_add") {
    check_fields(object, {"op", "id", "time_limit", "session", "rho", "range",
                          "capacity", "min_range"});
    op.antenna.rho = require_number_field(object, "rho");
    op.antenna.range = require_number_field(object, "range");
    op.antenna.capacity = require_number_field(object, "capacity");
    if (find_field(object, "min_range") != nullptr) {
      op.antenna.min_range = require_number_field(object, "min_range");
    }
    return op;
  }
  if (op.op == "close") {
    check_fields(object, {"op", "id", "session"});
    return op;
  }
  throw std::runtime_error("unknown op '" + op.op + "'");
}

std::string ServeReport::to_string() const {
  std::ostringstream os;
  os << "requests=" << requests << " registers=" << registers
     << " deltas=" << deltas << " ok=" << ok
     << " budget_exhausted=" << budget_exhausted << " invalid=" << invalid
     << " rejected=" << rejected << " memo_hit=" << memo_hits
     << " fresh_eval=" << fresh_evals;
  if (interrupted) os << " interrupted=yes";
  if (!slo_summary.empty()) os << " slo[" << slo_summary << "]";
  return os.str();
}

namespace {

/// Everything one run_serve call needs: the sequential op loop, and the
/// drain whose run deadline hands the interrupt flag and the global budget
/// to the op in flight.
class ServeLoop {
 public:
  ServeLoop(std::ostream& out, const ServeConfig& config)
      : out_(out),
        config_(config),
        drain_("serve", config.time_limit, config.interrupt),
        slo_(config.slo_window),
        c_ok_(obs::counter("serve.requests.ok")),
        c_budget_(obs::counter("serve.requests.budget_exhausted")),
        c_invalid_(obs::counter("serve.requests.invalid")),
        c_rejected_(obs::counter("serve.requests.rejected")),
        c_memo_hits_(obs::counter("serve.memo.hits")),
        c_memo_misses_(obs::counter("serve.memo.misses")),
        g_sessions_(obs::gauge("serve.sessions")),
        h_register_ms_(obs::hdr_histogram("serve.register_ms")),
        h_delta_ms_(obs::hdr_histogram("serve.delta_ms")),
        h_dirty_(obs::hdr_histogram("serve.dirty_permille")) {}

  ServeReport run(std::istream& in) {
    std::string line;
    std::size_t index = 0;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) {
        continue;  // blank line: not an op, no response
      }
      handle_line(line, index++);
    }

    // End of input: close whatever the client left open. The final
    // solution of each session was already delivered with its last delta,
    // so closing is just teardown -- but it must happen before the report
    // (and the CLI's final exporter tick) so `serve.sessions` ends at 0.
    store_.clear();
    g_sessions_.set(0.0);
    slo_.publish();

    ServeReport report = report_;
    report.interrupted = drain_.draining();
    report.slo_summary = slo_.summary().to_string();
    return report;
  }

 private:
  // ------------------------------------------------------------------- loop

  void handle_line(const std::string& line, std::size_t index) {
    ++report_.requests;
    if (drain_.draining()) {
      emit_error(index, /*id=*/"", /*session=*/"", RequestStatus::kRejected,
                 drain_.reason());
      return;
    }
    ServeOp op;
    try {
      op = parse_serve_op(line, index);
    } catch (const std::exception& e) {
      emit_error(index, /*id=*/"", /*session=*/"", RequestStatus::kInvalid,
                 e.what());
      return;
    }
    try {
      dispatch(op);
    } catch (const std::exception& e) {
      // Validation errors from the session/instance layer (bad demand,
      // index out of range, ...). The session kept its previous state.
      emit_error(op.index, op.id, op.session, RequestStatus::kInvalid,
                 e.what());
    }
  }

  void dispatch(const ServeOp& op) {
    const obs::ScopedSpan span("serve.request");
    if (op.op == "register") {
      do_register(op);
      return;
    }
    if (op.op == "close") {
      const bool existed = store_.close(op.session);
      g_sessions_.set(static_cast<double>(store_.size()));
      if (!existed) {
        emit_error(op.index, op.id, op.session, RequestStatus::kInvalid,
                   "unknown session '" + op.session + "'");
        return;
      }
      ++report_.ok;
      c_ok_.inc();
      std::ostringstream os;
      os << "{\"index\":" << op.index;
      if (!op.id.empty()) {
        os << ",\"id\":\"" << obs::json_escape(op.id) << "\"";
      }
      os << ",\"op\":\"close\",\"session\":\""
         << obs::json_escape(op.session) << "\",\"status\":\"ok\"}";
      out_ << os.str() << "\n";
      out_.flush();
      return;
    }
    do_delta(op);
  }

  void do_register(const ServeOp& op) {
    const bench_util::Timer timer;
    if (store_.size() >= config_.max_sessions) {
      emit_error(op.index, op.id, /*session=*/"", RequestStatus::kInvalid,
                 "session limit reached (" +
                     std::to_string(config_.max_sessions) + ")");
      return;
    }
    model::Instance inst;
    try {
      inst = op.instance_file.empty()
                 ? model::instance_from_string(op.instance_text)
                 : model::read_instance_file(op.instance_file);
    } catch (const std::exception& e) {
      emit_error(op.index, op.id, /*session=*/"", RequestStatus::kInvalid,
                 e.what());
      return;
    }

    const std::string id = store_.create(std::move(inst), op.solver);
    Session* session = store_.find(id);
    g_sessions_.set(static_cast<double>(store_.size()));
    ++report_.registers;

    const ResolveStats stats =
        session->solve_initial(drain_.arm(op.time_limit));
    const double elapsed_ms = timer.elapsed_ms();
    h_register_ms_.observe(elapsed_ms);
    emit_solved(op, id, *session, stats, elapsed_ms);
  }

  void do_delta(const ServeOp& op) {
    Session* session = store_.find(op.session);
    if (session == nullptr) {
      emit_error(op.index, op.id, op.session, RequestStatus::kInvalid,
                 "unknown session '" + op.session + "'");
      return;
    }
    const bench_util::Timer timer;
    const core::SolveOptions opts = drain_.arm(op.time_limit);
    ResolveStats stats;
    if (op.op == "customer_add") {
      stats = session->customer_add(op.customer_rec, opts);
    } else if (op.op == "customer_remove") {
      stats = session->customer_remove(op.customer, opts);
    } else if (op.op == "demand_set") {
      stats = session->demand_set(op.customer, op.demand, opts);
    } else {  // antenna_add (parse_serve_op admits nothing else)
      stats = session->antenna_add(op.antenna, opts);
    }
    const double elapsed_ms = timer.elapsed_ms();
    ++report_.deltas;
    h_delta_ms_.observe(elapsed_ms);
    h_dirty_.observe(1000.0 * stats.dirty_ratio);
    report_.memo_hits += stats.memo_hits;
    report_.fresh_evals += stats.fresh_evals;
    c_memo_hits_.add(stats.memo_hits);
    c_memo_misses_.add(stats.fresh_evals);
    emit_solved(op, op.session, *session, stats, elapsed_ms);
  }

  // -------------------------------------------------------------- responses

  void emit_solved(const ServeOp& op, const std::string& session_id,
                   const Session& session, const ResolveStats& stats,
                   double elapsed_ms) {
    const model::Solution& sol = session.solution();
    const RequestStatus status =
        sol.status == model::SolveStatus::kComplete
            ? RequestStatus::kOk
            : RequestStatus::kBudgetExhausted;
    if (status == RequestStatus::kOk) {
      ++report_.ok;
      c_ok_.inc();
    } else {
      ++report_.budget_exhausted;
      c_budget_.inc();
    }
    slo_.record(elapsed_ms, /*deadline_ok=*/status == RequestStatus::kOk,
                obs::SloKind::kSolve);

    std::string line = "{\"index\":" + std::to_string(op.index);
    if (!op.id.empty()) line += ",\"id\":\"" + obs::json_escape(op.id) + "\"";
    line += ",\"op\":\"" + obs::json_escape(op.op) + "\"";
    line += ",\"session\":\"" + obs::json_escape(session_id) + "\"";
    line += ",\"status\":\"";
    line += to_string(status);
    line += "\",\"solver\":\"" + obs::json_escape(session.solver().family) +
            "\"";
    line += stats.incremental ? ",\"incremental\":true"
                              : ",\"incremental\":false";
    line += ",\"memo_hits\":" + std::to_string(stats.memo_hits);
    line += ",\"fresh_evals\":" + std::to_string(stats.fresh_evals);
    line += ",\"dirty_permille\":" +
            obs::json_number(1000.0 * stats.dirty_ratio);
    line += ",\"served_value\":" +
            obs::json_number(served_value(session.instance(), sol));
    line += ",\"solve_ms\":" + obs::json_number(elapsed_ms);
    line += ",\"solution\":\"";
    model::append_solution_escaped(line, sol);
    line += "\"}\n";
    out_ << line;
    out_.flush();
  }

  void emit_error(std::size_t index, const std::string& id,
                  const std::string& session, RequestStatus status,
                  const std::string& error) {
    if (status == RequestStatus::kRejected) {
      ++report_.rejected;
      c_rejected_.inc();
      // A rejected op is a deadline miss from the client's point of view;
      // invalid ops are client errors and are deliberately not recorded
      // (same accounting as the batch engine, docs/observability.md).
      slo_.record(0.0, /*deadline_ok=*/false, obs::SloKind::kRejected);
    } else {
      ++report_.invalid;
      c_invalid_.inc();
    }
    std::ostringstream os;
    os << "{\"index\":" << index;
    if (!id.empty()) os << ",\"id\":\"" << obs::json_escape(id) << "\"";
    if (!session.empty()) {
      os << ",\"session\":\"" << obs::json_escape(session) << "\"";
    }
    os << ",\"status\":\"" << to_string(status) << "\""
       << ",\"error\":\"" << obs::json_escape(error) << "\"}";
    out_ << os.str() << "\n";
    out_.flush();
  }

  std::ostream& out_;
  const ServeConfig& config_;
  Drain drain_;
  SessionStore store_;
  obs::SloTracker slo_;
  ServeReport report_;

  obs::Counter c_ok_;
  obs::Counter c_budget_;
  obs::Counter c_invalid_;
  obs::Counter c_rejected_;
  obs::Counter c_memo_hits_;
  obs::Counter c_memo_misses_;
  obs::Gauge g_sessions_;
  obs::HdrHistogram h_register_ms_;
  obs::HdrHistogram h_delta_ms_;
  obs::HdrHistogram h_dirty_;
};

}  // namespace

ServeReport run_serve(std::istream& in, std::ostream& out,
                      const ServeConfig& config) {
  ServeLoop loop(out, config);
  return loop.run(in);
}

}  // namespace sectorpack::srv
