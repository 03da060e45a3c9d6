#pragma once
// Portfolio racing: run several solver families concurrently under one
// deadline and return the best solution any of them found.
//
// The paper's families have sharply different quality/latency profiles by
// instance shape -- greedy is near-instant, local search and annealing
// trade time for quality, exact is optimal but blows up combinatorially --
// and no single family dominates (cf. PAPERS.md on competing CLP
// formulations). race::solve turns that spread into a feature: each
// portfolio member runs in its own lane and writes its result to a slot of
// its own, and the first lane that provably hits bounds::trivial_bound
// cancels the rest through the race deadline that every lane shares
// (core::Deadline::after_at_most links it under the caller's cap, so a
// cancel or SIGINT above the cap reaches the lanes too).
//
// Determinism contract: the greedy lane always runs first, inline, and its
// slot is the warm-start seed handed to every seedable lane -- lanes never
// seed from a timing-dependent snapshot -- and the winner is selected *after*
// all lanes settle by (value, then fixed family priority from the solver
// registry). With an unlimited budget the output is therefore byte-
// identical run to run; scheduling only moves wall time, never the answer.
// See docs/performance.md "Portfolio racing".

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/model/solution.hpp"

namespace sectorpack::race {

struct RaceConfig {
  /// Families to race, by registry name. Must be non-empty, duplicate-free
  /// and must not contain "race" itself (solve throws std::invalid_argument
  /// otherwise). Order does not affect the result -- only values and the
  /// registry priorities do.
  std::vector<std::string> portfolio = {"greedy", "local-search", "annealing"};
  /// Forwarded to families that consume them (annealing today).
  std::uint64_t seed = 1;
  std::uint64_t iterations = 2000;
  /// The race-wide cap; every lane runs under it. Its cancel(), or an
  /// interrupt at its root (drain, SIGINT), reaches every lane through the
  /// deadline chain.
  core::SolveOptions solve;
};

/// Per-lane outcome, for stats/debugging; `ran` is false when the lane was
/// skipped (pre-expired budget) and `error` carries e.g. the exact
/// solver's tuple-space overflow message (an errored lane simply scores no
/// result; the race goes on).
struct LaneOutcome {
  std::string family;
  double value = 0.0;
  model::SolveStatus status = model::SolveStatus::kBudgetExhausted;
  bool ran = false;
  std::string error;
};

/// What happened, mirrored into the race.* obs metrics.
struct RaceStats {
  std::string winner;
  bool proved_optimal = false;     ///< winner matched bounds::trivial_bound
  std::uint64_t cancelled = 0;     ///< lanes cancelled by cancel-on-winner
  std::uint64_t exchange_adoptions = 0;  ///< lanes that adopted the seed
  double win_ms = 0.0;             ///< start to winning lane's finish
  std::vector<LaneOutcome> lanes;
};

/// Parse a CLI/request portfolio spec: comma-separated family names,
/// '_' accepted for '-' (so `local_search` works unquoted in shells).
/// Throws std::invalid_argument on empty parts, unknown families,
/// duplicates, or "race" itself.
[[nodiscard]] std::vector<std::string> parse_portfolio(
    const std::string& spec);

/// Race the configured portfolio. The returned solution is feasible
/// (verify::debug_postcondition checked), its status composed honestly:
/// kComplete only when the winner proved optimality or every lane ran to
/// completion. A pre-expired deadline degrades to the empty solution with
/// kBudgetExhausted, like every other solver family.
[[nodiscard]] model::Solution solve(const model::Instance& inst,
                                    const RaceConfig& config = {},
                                    RaceStats* stats = nullptr);

}  // namespace sectorpack::race
