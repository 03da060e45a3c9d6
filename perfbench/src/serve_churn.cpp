// serve_churn: srv::run_serve with one session. It registers a
// 1e5-customer greedy instance with 6 thin ring antennas, then runs a
// closed loop with one client that sends each op after the previous reply:
// customer_add and customer_remove in equal shares (n stays near 1e5) plus
// demand_set. antenna_add is left out: it only grows k, which would make
// latency drift with run length. Every op writes the instance, the spatial
// cache and the oracle caches, which the other workloads only read.
//
// Timed run: each delta's latency runs from the serve loop taking its line
// to its reply line being written, stamped by the line streams. Every
// kCheckEvery-th reply (by length and hash) and the last one (byte for
// byte) are compared with srv::run_solver on a fresh instance rebuilt from
// the post-delta records.
// Traced run: parse_serve_op, the Session delta, then building the reply,
// on one Session driven directly, plus a flat geometry probe.

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "process.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/engine.hpp"
#include "src/srv/jsonl.hpp"
#include "src/srv/serve.hpp"
#include "src/srv/session.hpp"
#include "src/verify/verify.hpp"
#include "streams.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace model = sectorpack::model;
namespace srv = sectorpack::srv;

namespace {

constexpr std::size_t kCheckEvery = 250;
constexpr std::size_t kWarmUpOps = 20;
constexpr std::uint32_t kProbeEvery = 10;

srv::SolverKey greedy() { return srv::SolverKey{"greedy", 1, 2000, ""}; }

/// Writes the instance file and returns the instance as the server will
/// parse it (the shadow client must start from exactly those records).
model::Instance write_input(const Context& ctx, const fs::path& input) {
  write_file(input, model::to_string(serve_churn_instance(ctx.seed)));
  return model::read_instance_file(input.string());
}

/// The answer a reply must carry after delta `op`: srv::run_solver on the
/// instance rebuilt from `client`'s post-delta records. `failure` is set
/// when that answer fails a verify invariant.
std::string reference(const ChurnClient& client, std::size_t op,
                      std::string& failure) {
  const model::Instance fresh = client.rebuild();
  const model::Solution sol = srv::run_solver(fresh, greedy(), {});
  const sectorpack::verify::VerifyReport report =
      sectorpack::verify::verify_solution(fresh, sol);
  if (!report.ok) {
    failure = "serve_churn delta " + std::to_string(op) + ": " +
              report.to_string();
  }
  return model::to_string(sol);
}

/// The failure when `solution` is not the reference after delta `op`, or
/// an empty string.
std::string check_reply(const ChurnClient& client, const std::string& solution,
                        std::size_t op) {
  std::string failure;
  if (reference(client, op, failure) != solution && failure.empty()) {
    failure = "serve_churn delta " + std::to_string(op) +
              ": reply differs from srv::run_solver";
  }
  return failure;
}

/// One run_serve session: register, then deltas until `stop` says so.
/// Replies go to `on_reply(index, line)`; index 0 is the register reply.
struct ServeRun {
  std::vector<Clock::time_point> taken;
  std::vector<Clock::time_point> written;
  bool closed_loop = true;  // every op was sent after the previous reply
};

template <typename Stop, typename OnReply>
ServeRun serve(const std::string& register_op, ChurnClient& client,
               Stop&& stop, OnReply&& on_reply) {
  ServeRun run;
  std::size_t sent = 0;
  LineStamp stamp([&](std::size_t index, std::string_view line) {
    on_reply(index, line);
  });
  LineFeed feed([&](std::string& line) {
    if (stamp.written().size() != sent) {
      run.closed_loop = false;  // a reply went missing: stop the session
      return false;
    }
    if (sent == 0) {
      line = register_op;
    } else if (stop(sent - 1)) {
      return false;
    } else {
      line = client.next_op();
    }
    ++sent;
    return true;
  });
  std::istream in(&feed);
  std::ostream out(&stamp);
  (void)srv::run_serve(in, out, srv::ServeConfig{});
  run.taken = feed.taken();
  run.written = stamp.written();
  return run;
}

/// The `"name":"..."` / `"name":<number>` fields of a reply, cheaply: the
/// status and served value come before the (long) solution text, which is
/// the last field.
std::string_view reply_status(std::string_view line) {
  constexpr std::string_view kKey = "\"status\":\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kKey.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

std::string_view reply_solution_escaped(std::string_view line) {
  constexpr std::string_view kKey = "\"solution\":\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos || line.size() < at + kKey.size() + 2) {
    return {};
  }
  return line.substr(at + kKey.size(), line.size() - at - kKey.size() - 2);
}

double reply_served(std::string_view line) {
  constexpr std::string_view kKey = "\"served_value\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return -1.0;
  return std::stod(std::string(line.substr(at + kKey.size(), 32)));
}

RunResult timed(const Context& ctx) {
  RunResult result;
  EndToEnd e2e;
  const fs::path input = fs::absolute(ctx.work / "serve_churn.inst");
  const std::string register_op = register_line(input.string());
  model::Instance initial;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    e2e.setup_s.push_back(seconds_of([&] {
      initial = write_input(ctx, input);
      ChurnClient warm(ctx.seed, initial);
      (void)serve(register_op, warm,
                  [](std::size_t delta) { return delta == kWarmUpOps; },
                  [](std::size_t, std::string_view) {});
    }));
  }

  // The timed session. Checked replies: every kCheckEvery-th, by length
  // and a 64-bit hash of its solution bytes (keeping the texts would add
  // their size to the peak memory), and the last one in full.
  ChurnClient client(ctx.seed, initial);
  struct Kept {
    std::size_t delta;
    std::size_t length;
    std::size_t hash;
  };
  std::vector<Kept> kept;
  std::string last;
  double served_sum = 0.0;
  std::size_t deltas = 0;
  Clock::time_point first{};
  const auto stop = [&](std::size_t delta) {
    if (delta == 0) first = Clock::now();
    return delta > 0 && ms_between(first, Clock::now()) >= 1e3 * ctx.seconds;
  };
  const auto on_reply = [&](std::size_t index, std::string_view line) {
    if (reply_status(line) != "ok") {
      result.op_failed("serve_churn reply " + std::to_string(index) +
                       ": status " + std::string(reply_status(line)));
      return;
    }
    if (index == 0) return;  // register
    const std::size_t delta = index - 1;
    ++deltas;
    served_sum += ratio(reply_served(line), client.trivial_bound());
    last.assign(line);
    if (delta % kCheckEvery == 0) {
      const std::string_view solution = reply_solution_escaped(line);
      kept.push_back({delta, solution.size(),
                      std::hash<std::string_view>{}(solution)});
    }
  };
  reset_peak_rss();
  const ServeRun run = serve(register_op, client, stop, on_reply);
  e2e.peak_rss_mb = self_peak_rss_mb();
  e2e.rss_samples = 1;
  if (!run.closed_loop) result.check_failed("serve_churn: a reply is missing");
  for (std::size_t i = 1; i < run.taken.size() && i < run.written.size(); ++i) {
    e2e.latency_ms.push_back(ms_between(run.taken[i], run.written[i]));
  }
  // The rate the server sustains while it has an op: the client's own time
  // between a reply and its next op is left out.
  double busy_ms = 0.0;
  for (const double ms : e2e.latency_ms) busy_ms += ms;
  e2e.ops_per_s.push_back(
      ratio(static_cast<double>(e2e.latency_ms.size()), busy_ms / 1e3));
  e2e.served_ratio = ratio(served_sum, static_cast<double>(deltas));
  e2e.served_samples = deltas;

  // Checks, after the clock: replay the same op stream on a second client
  // up to each checked reply and compare with a from-scratch solve.
  ChurnClient replay(ctx.seed, initial);
  std::size_t mismatches = 0;
  const auto fail = [&](const std::string& failure) {
    if (failure.empty()) return;
    result.op_failed(failure);
    ++mismatches;
  };
  for (const Kept& k : kept) {
    while (replay.ops() <= k.delta) (void)replay.next_op();
    std::string failure;
    const std::string escaped =
        sectorpack::obs::json_escape(reference(replay, k.delta, failure));
    if (failure.empty() &&
        (escaped.size() != k.length ||
         std::hash<std::string_view>{}(escaped) != k.hash)) {
      failure = "serve_churn delta " + std::to_string(k.delta) +
                ": reply differs from srv::run_solver";
    }
    fail(failure);
  }
  if (deltas > 0) {
    while (replay.ops() < deltas) (void)replay.next_op();
    fail(check_reply(replay,
                     srv::parse_flat_object(last).at("solution").string,
                     deltas - 1));
  }
  for (std::size_t d = mismatches; d < deltas; ++d) result.op(true);
  const std::size_t checked = kept.size() + (deltas > 0 ? 1 : 0);
  std::cout << "serve_churn: " << deltas << " deltas, " << checked
            << " replies compared with srv::run_solver\n";
  add_end_to_end(result, e2e);
  return result;
}

/// One delta as run_serve handles it: parse, apply to the session, build
/// the reply. Returns the reply line.
std::string delta_op(Recorder& rec, srv::Session& session,
                     const std::string& line, std::size_t index,
                     srv::ResolveStats& stats) {
  srv::ServeOp op;
  {
    const auto s = rec.span("srv.parse_op");
    op = srv::parse_serve_op(line, index);
  }
  {
    const auto s = rec.span("srv.session");
    if (op.op == "customer_add") {
      stats = session.customer_add(op.customer_rec, {});
    } else if (op.op == "customer_remove") {
      stats = session.customer_remove(op.customer, {});
    } else {
      stats = session.demand_set(op.customer, op.demand, {});
    }
  }
  const auto s = rec.span("srv.reply");
  const model::Solution& sol = session.solution();
  std::string text;
  {
    const auto w = rec.span("model.write");
    text = model::to_string(sol);
  }
  std::string escaped;
  {
    const auto e = rec.span("srv.escape");
    escaped = sectorpack::obs::json_escape(text);
  }
  std::ostringstream os;
  os << "{\"index\":" << op.index << ",\"op\":\""
     << sectorpack::obs::json_escape(op.op) << "\",\"session\":\"s0\""
     << ",\"status\":\"ok\",\"solver\":\"greedy\",\"incremental\":"
     << (stats.incremental ? "true" : "false")
     << ",\"memo_hits\":" << stats.memo_hits
     << ",\"fresh_evals\":" << stats.fresh_evals << ",\"dirty_permille\":"
     << sectorpack::obs::json_number(1000.0 * stats.dirty_ratio)
     << ",\"served_value\":"
     << sectorpack::obs::json_number(
            model::served_value(session.instance(), sol))
     << ",\"solution\":\"" << escaped << "\"}";
  return os.str();
}

RunResult traced(const Context& ctx) {
  RunResult result;
  const fs::path input = fs::absolute(ctx.work / "serve_churn.inst");
  const model::Instance initial = write_input(ctx, input);
  ChurnClient client(ctx.seed, initial);

  // register, as run_serve does it (not an op: it is set-up).
  const srv::ServeOp reg = srv::parse_serve_op(register_line(input.string()), 0);
  srv::Session session(model::read_instance_file(reg.instance_file),
                       reg.solver);
  (void)session.solve_initial({});

  Layers layers;
  Recorder off(false);
  Recorder rec;
  Counters total;
  std::size_t index = 1;
  std::size_t evals = 0;
  std::size_t memo_hits = 0;
  double dirty = 0.0;
  std::vector<std::size_t> out;
  alternate_ops(
      ctx.seconds, layers,
      [&] {
        const std::string line = client.next_op();
        srv::ResolveStats stats;
        const double ms = 1e3 * seconds_of([&] {
          (void)delta_op(off, session, line, index, stats);
        });
        ++index;
        return ms;
      },
      [&](std::uint32_t id) {
        const std::string line = client.next_op();
        srv::ResolveStats stats;
        const double ms = traced_op(rec, id, total, [&] {
                            (void)delta_op(rec, session, line, index, stats);
                          }).ms;
        ++index;
        evals += stats.evals;
        memo_hits += stats.memo_hits;
        dirty += stats.dirty_ratio;
        // Geometry probe on a copy, every kProbeEvery-th op: a mutated
        // instance answers flat, as the session's own queries do.
        if (id % kProbeEvery == 0) {
          const model::Instance copy = session.instance();
          const auto p = rec.probe(id, "geom.query");
          for (std::size_t j = 0; j < copy.num_antennas(); ++j) {
            copy.in_range_customers(j, out);
          }
        }
        return ms;
      });
  // The session's last answer against a from-scratch solve.
  const std::string failure = check_reply(
      client, model::to_string(session.solution()), client.ops() - 1);
  if (!failure.empty()) result.op_failed(failure);
  const std::size_t failures = failure.empty() ? 0 : 1;

  const std::size_t ops = layers.traced_op_ms.size();
  layers.table = layer_table(rec);
  add_solver_counters(layers, total, ops);
  layers.extra["srv.memo_hit_ratio"] = {
      ratio(static_cast<double>(memo_hits), static_cast<double>(evals)),
      evals};
  layers.extra["srv.dirty_ratio"] = {ratio(dirty, static_cast<double>(ops)),
                                     ops};
  const std::size_t all_ops = layers.untraced_op_ms.size() + ops;
  for (std::size_t i = failures; i < all_ops; ++i) result.op(true);
  add_per_layer(result, layers);
  dump_trace(ctx, "serve_churn", rec);
  return result;
}

}  // namespace

RunResult run_serve_churn(const Context& ctx) {
  return ctx.trace ? traced(ctx) : timed(ctx);
}

}  // namespace perfbench
