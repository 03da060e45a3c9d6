#pragma once
// Session serving: `sectorpack serve` daemon loop.
//
// Where `sectorpack batch` answers independent one-shot requests, `serve`
// holds *sessions*: a client registers an instance once, then streams
// deltas (customer arrives/leaves, demand drift, antenna added) and gets a
// freshly re-solved answer after each one -- without re-sending or
// re-solving the whole instance. The heavy lifting (stable-id fingerprints,
// dirty-window memos, byte-identity with a from-scratch solve) lives in
// srv::Session; this layer is the protocol: one JSON op per input line, one
// JSON response per op, in input order. See docs/serving.md "Session
// protocol" for the schema.
//
// Ops: register, customer_add, customer_remove, demand_set, antenna_add,
// close. Failure isolation is per line -- a malformed op, an unknown
// session, or a validation error yields a status "invalid" response and the
// loop continues; the session named by a failed delta keeps its previous
// instance and solution.
//
// The loop is sequential (sessions are mutable state; one writer). It
// drains through srv::Drain, like batch: on an interrupt or a lapsed global
// budget the op in flight finishes as a feasible budget-exhausted
// incumbent, and every later line is answered with status "rejected".
// Every input line always gets exactly one response, and all sessions are
// closed before run_serve returns.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/model/instance.hpp"
#include "src/srv/fingerprint.hpp"

namespace sectorpack::srv {

/// One parsed serve op (exposed for tests; run_serve parses per line).
struct ServeOp {
  std::size_t index = 0;  // 0-based op ordinal (blank lines skipped)
  std::string op;         // register | customer_add | ... | close
  std::string id;         // optional client tag, echoed in the response
  std::string session;    // target session; empty only for register
  double time_limit = -1.0;  // per-op budget in seconds; < 0 = none

  // register
  std::string instance_file;
  std::string instance_text;
  SolverKey solver;

  // customer_add
  model::Customer customer_rec;
  // customer_remove / demand_set
  std::size_t customer = 0;
  // demand_set
  double demand = 0.0;
  // antenna_add
  model::AntennaSpec antenna;
};

/// Parse one op line. Throws std::runtime_error naming the offending field.
[[nodiscard]] ServeOp parse_serve_op(const std::string& line,
                                     std::size_t index);

struct ServeConfig {
  double time_limit = -1.0;  // global wall-clock budget; < 0 = unlimited
  std::size_t max_sessions = 64;  // register beyond this is invalid
  /// Cooperative interrupt (the CLI points this at its SIGINT flag): once
  /// true, the op in flight finishes as an incumbent and later lines are
  /// rejected.
  const std::atomic<bool>* interrupt = nullptr;
  /// Rolling-window size for the SLO tracker (clamped to >= 1). Delta and
  /// register solves are recorded as kSolve, rejected lines as kRejected;
  /// serve has no result cache, so cache_hit_rate stays 0.
  std::size_t slo_window = 512;
};

struct ServeReport {
  std::size_t requests = 0;   // non-blank input lines
  std::size_t registers = 0;  // sessions created
  std::size_t deltas = 0;     // delta ops applied (any status but invalid)
  std::size_t ok = 0;
  std::size_t budget_exhausted = 0;
  std::size_t invalid = 0;
  std::size_t rejected = 0;
  std::uint64_t memo_hits = 0;    // dirty-window memo hits across deltas
  std::uint64_t fresh_evals = 0;  // window sweeps actually paid for
  bool interrupted = false;  // a drain started (interrupt or global budget)
  /// Rolling-window SLO rollup at drain (obs::SloTracker::Summary).
  std::string slo_summary;

  [[nodiscard]] std::string to_string() const;
};

/// Run the serve loop: JSONL ops on `in`, JSONL responses on `out` (one per
/// non-blank line, input order). Never throws for per-op problems.
ServeReport run_serve(std::istream& in, std::ostream& out,
                      const ServeConfig& config);

}  // namespace sectorpack::srv
