#pragma once
// P3 -- packing to sectors: the general problem. Multiple antennas with
// individual widths, ranges and capacities; choose all orientations and the
// assignment.
//
// solve_greedy implements the submodular-style greedy the approximation
// literature for this problem family builds on: k rounds, each committing
// the (antenna, orientation, packed set) triple of maximum marginal served
// demand over the still-unserved customers, where the per-round packing is
// delegated to a knapsack oracle with guarantee beta. For the coverage-type
// relaxation the classical analysis gives a (1 - e^{-beta}) factor; with
// binding capacities the greedy is the standard heuristic whose empirical
// ratio experiments T4/F1/F2 chart against certified upper bounds.
//
// solve_local_search improves any feasible solution by round-robin
// re-orientation (free one antenna's customers, re-solve its best window
// over everything unserved, keep if better) followed by a global
// reassignment; the result never degrades.
//
// Both re-evaluate lazily, as in Minoux's accelerated greedy (1978) but
// with exact dirty tracking instead of bounds: an antenna's window verdict
// depends only on its spec and its free in-band customers, so a Verdicts
// table replays it until one of those customers changes hands. The output
// bytes are those of sweeping every antenna every time.
//
// solve_exact enumerates candidate orientation tuples (leading edges at
// customer angles -- lossless by the candidate-orientation lemma, applied
// per antenna since each customer is served by at most one antenna) with
// exact assignment per tuple. Exponential; reference for small instances.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/knapsack/incremental.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/solution.hpp"
#include "src/single/single.hpp"

namespace sectorpack::sectors {

// Every solver here is deadline-aware: when config.solve.deadline expires
// it stops at the next check point (round / pass / iteration / tuple),
// finalizes, and returns its feasible incumbent with
// Solution::status == kBudgetExhausted. See docs/robustness.md.

struct GreedyConfig {
  knapsack::Oracle oracle = knapsack::Oracle::exact();
  core::SolveOptions solve;
};

/// Each antenna's last window verdict, and whether it is still clean: what
/// a fresh sweep would return. A verdict is a pure function of the
/// antenna's spec and its free in-band customers (the unserved ones plus
/// its own), so it stays clean until one of those customers changes hands.
/// A truncated verdict (complete == false) is never clean. `chosen` holds
/// instance indices, so a table lives for one solve of one instance.
class Verdicts {
 public:
  explicit Verdicts(std::size_t k = 0) : verdict_(k), clean_(k, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return verdict_.size(); }
  [[nodiscard]] bool clean(std::size_t j) const { return clean_[j] != 0; }
  [[nodiscard]] const single::WindowChoice& verdict(std::size_t j) const {
    return verdict_[j];
  }
  /// Stores antenna j's fresh verdict, clean when complete; returns it.
  const single::WindowChoice& keep(std::size_t j, single::WindowChoice choice);
  /// The customers `moved` changed hands to or from antenna `mover`: every
  /// other antenna with one of them in its radial band loses its clean bit.
  /// The mover's own free set did not change.
  void mark(const model::Instance& inst, std::size_t mover,
            std::span<const std::size_t> moved);

 private:
  std::vector<single::WindowChoice> verdict_;
  std::vector<std::uint8_t> clean_;
};

/// `verdicts`, when given, is refilled by the round loop and left valid for
/// the final solution: solve_local_search hands it to improve.
[[nodiscard]] model::Solution solve_greedy(const model::Instance& inst,
                                           const GreedyConfig& config = {},
                                           Verdicts* verdicts = nullptr);

/// Antenna j's verdict for one round, over the customers not yet `served`,
/// with `chosen` holding instance indices.
using GreedyEval = std::function<single::WindowChoice(
    std::size_t j, const std::vector<bool>& served)>;
/// Told each committed antenna and its verdict, after the commit.
using GreedyCommit =
    std::function<void(std::size_t j, const single::WindowChoice& pick)>;

/// The greedy round loop: solve_greedy is this loop with sweep_unserved as
/// `evaluate`, and the serve session's memo replay (src/srv/session.cpp)
/// drives it with a memo-then-sweep hook, so the two cannot drift. Each of
/// at most k rounds considers every unused antenna (only the lowest unused
/// one when all antennas are identical), commits the first maximum of
/// positive value and reports it to `committed`. An antenna is evaluated
/// only when it has no clean verdict: in its first round, after a commit
/// took a customer from its band, or after a truncated verdict. The loop
/// stops when no antenna gains anything, or -- status kBudgetExhausted --
/// when `deadline` has expired after a round's commit. It neither records
/// the expiry nor checks the result; callers do. `verdicts`, when given, is
/// refilled (one slot per antenna) and left valid for the returned
/// solution, committed antennas included.
[[nodiscard]] model::Solution greedy_rounds(
    const model::Instance& inst, const core::Deadline& deadline,
    const GreedyEval& evaluate, const GreedyCommit& committed = nullptr,
    Verdicts* verdicts = nullptr);

/// One (antenna, round) evaluation: antenna j's in-range customers not yet
/// `served`, swept by single::best_window_weighted with config.oracle under
/// config.solve.deadline; picks come back as instance indices. `ids[i]` is
/// customer i's stable `cache` id (empty: the instance index).
[[nodiscard]] single::WindowChoice sweep_unserved(
    const model::Instance& inst, std::size_t j,
    const std::vector<bool>& served, const GreedyConfig& config,
    knapsack::OracleCache* cache, std::span<const std::size_t> ids = {});

struct LocalSearchConfig {
  knapsack::Oracle oracle = knapsack::Oracle::exact();
  std::size_t max_passes = 16;  // full antenna sweeps without improvement cap
  core::SolveOptions solve;
};

/// Greedy start + local search + global reassignment. The greedy's
/// verdicts seed the first pass, so it sweeps only the antennas whose band
/// a later commit touched.
[[nodiscard]] model::Solution solve_local_search(
    const model::Instance& inst, const LocalSearchConfig& config = {});

/// Improve a given feasible solution; the returned solution serves at least
/// as much demand as `start`. Each pass tries every antenna in order, but
/// sweeps only those without a clean verdict; the others replay it.
/// `verdicts`, when given, must be valid for `start` (greedy_rounds leaves
/// it so); otherwise the first pass sweeps every antenna.
[[nodiscard]] model::Solution improve(const model::Instance& inst,
                                      model::Solution start,
                                      const LocalSearchConfig& config = {},
                                      Verdicts* verdicts = nullptr);

/// Exact solver. Throws std::invalid_argument when the candidate tuple
/// space exceeds `tuple_limit` and std::runtime_error on assignment node
/// exhaustion. With a deadline, returns the best tuple examined so far
/// (status kBudgetExhausted) instead of proving optimality.
[[nodiscard]] model::Solution solve_exact(
    const model::Instance& inst, std::uint64_t tuple_limit = 1u << 20,
    std::uint64_t node_limit = 1u << 26,
    const core::SolveOptions& opts = {});

/// Baseline: orientations evenly spaced (alpha_j = j * 2*pi / k), customers
/// assigned by successive knapsack. What a non-adaptive deployment does.
[[nodiscard]] model::Solution solve_uniform_orientations(
    const model::Instance& inst,
    const knapsack::Oracle& oracle = knapsack::Oracle::exact(),
    const core::SolveOptions& opts = {});

}  // namespace sectorpack::sectors
