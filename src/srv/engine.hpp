#pragma once
// Batch request engine: solve many instances in one process.
//
// `sectorpack batch` reads one JSON request per line, fans the requests out
// over a bounded admission queue (par::BoundedQueue) to `--jobs` pump
// threads of its own, and writes one JSON response per request, in input
// order. The engine composes the existing machinery instead of growing new
// solver paths: per-request budgets are core::Deadline (clamped under the
// batch-wide budget via Deadline::after_at_most), solving goes through the
// same run_solver dispatch the `solve` subcommand uses (so a cache miss is
// byte-identical to a single-shot solve), results are memoized in an LRU
// ResultCache keyed by the fingerprint of the instance as written (so a
// hit is the very solution a miss would have produced), and every response
// -- fresh or cached -- passes through the src/verify/ invariants.
//
// Failure isolation is per request: a malformed line, an unreadable
// instance, or an unknown solver yields a status "invalid" response and
// the batch continues. A lapsed global budget or an interrupt (SIGINT in
// the CLI) starts a drain (srv::Drain, shared with `serve`), also after
// the last input line was read: admission stops, the solves in flight read
// the drain through their deadlines and finish as feasible budget-exhausted
// incumbents, and everything not yet started is answered with status
// "rejected" -- every input line always gets exactly one response. See
// docs/serving.md for the request/response schema.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/model/solution.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/fingerprint.hpp"
#include "src/srv/jsonl.hpp"
#include "src/srv/solvers.hpp"

namespace sectorpack::srv {

/// One request, parsed from a JSONL line. See docs/serving.md.
struct Request {
  std::size_t index = 0;      // 0-based input line ordinal
  std::string id;             // optional client tag, echoed in the response
  std::string instance_file;  // exactly one of instance_file /
  std::string instance_text;  //   inline instance text is set
  SolverKey solver;
  double time_limit = -1.0;   // per-request budget in seconds; < 0 = none
  /// Set by the engine at admission; queue wait = dequeue time - this.
  std::chrono::steady_clock::time_point admitted_at{};
};

/// Per-request outcome, serialized into the response `status` field.
enum class RequestStatus : std::uint8_t {
  kOk = 0,               // solved to completion
  kBudgetExhausted = 1,  // deadline hit; response carries the incumbent
  kInvalid = 2,          // malformed request / instance / unknown solver
  kRejected = 3,         // never started: drain or global budget exhausted
};

[[nodiscard]] const char* to_string(RequestStatus status) noexcept;

struct BatchConfig {
  unsigned jobs = 0;            // worker count; 0 = hardware_concurrency
  double time_limit = -1.0;     // global wall-clock budget; < 0 = unlimited
  std::size_t cache_entries = 128;  // LRU capacity; 0 disables caching
  std::size_t queue_capacity = 0;   // admission bound; 0 = 4 * jobs
  /// Cooperative interrupt (the CLI points this at its SIGINT flag): once
  /// true, admission stops and the batch drains as described above.
  const std::atomic<bool>* interrupt = nullptr;
  /// Per-request JSONL access log (`--access-log` in the CLI): one line per
  /// request, written by the reorder/emit stage in response order. nullptr
  /// disables it. See docs/serving.md for the line schema.
  std::ostream* access_log = nullptr;
  /// Rolling-window size for the SLO tracker (clamped to >= 1); the window
  /// summary lands in BatchReport::slo_summary and, via obs, in `slo.*`.
  std::size_t slo_window = 512;
};

struct BatchReport {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t budget_exhausted = 0;
  std::size_t invalid = 0;
  std::size_t rejected = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  bool interrupted = false;  // a drain started (interrupt or global budget)
  /// Rolling-window SLO rollup at drain (obs::SloTracker::Summary
  /// to_string: window, p50/p95/p99 ms, deadline and cache hit-rates).
  std::string slo_summary;

  [[nodiscard]] std::string to_string() const;
};

/// Run a batch: JSONL requests on `in`, JSONL responses on `out` (one per
/// request, input order). Never throws for per-request problems; throws
/// only on engine-level misuse (e.g. an unwritable output stream).
BatchReport run_batch(std::istream& in, std::ostream& out,
                      const BatchConfig& config);

/// True when `family` names a solver run_solver can dispatch.
[[nodiscard]] bool is_known_solver(const std::string& family) noexcept;

/// Single-instance solver dispatch shared by `sectorpack solve` and the
/// batch engine -- one code path, so batch cache misses are byte-identical
/// to single-shot solves. Throws std::invalid_argument on an unknown
/// family (use is_known_solver to pre-validate).
[[nodiscard]] model::Solution run_solver(const model::Instance& inst,
                                         const SolverKey& key,
                                         const core::SolveOptions& opts);

/// Solution-quality telemetry, the same for `sectorpack solve` and the
/// batch engine: a solve's gap to bounds::trivial_bound, in permille of
/// the bound (0 = matched it, 1000 = served nothing), goes to the
/// `quality.gap_permille` histogram and to the
/// `quality.<family>.{solves,gap_permille_sum}` counters. The constructor
/// registers the histogram and the counters of each of `families`, so
/// record() never takes the obs registration mutex.
class QualityRecorder {
 public:
  explicit QualityRecorder(std::span<const SolverFamily> families);

  /// No-op while obs is disabled. A family not registered at construction
  /// reaches the histogram only.
  void record(const model::Instance& inst, std::string_view family,
              double served) const;

 private:
  struct Family {
    std::string_view name;
    obs::Counter solves;
    obs::Counter gap_sum;  // integer permille; divide by solves for the mean
  };
  obs::HdrHistogram gap_;
  std::vector<Family> families_;
};

/// Parse one request line (exposed for tests; run_batch uses it per line).
/// Throws std::runtime_error naming the offending field.
[[nodiscard]] Request parse_request(const std::string& line,
                                    std::size_t index);

/// The solve fields a batch request and a serve `register` op share:
/// exactly one of `instance_file` and `instance`, then `solver` (a known
/// family), `seed`, `iterations`, `portfolio` (solver "race" only) and
/// `time_limit`, checked in that order. Index and id stay default; each
/// parser keeps its own unknown-field check. Throws std::runtime_error
/// naming the offending field.
[[nodiscard]] Request parse_solve_fields(const JsonObject& object);

}  // namespace sectorpack::srv
