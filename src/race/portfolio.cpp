#include "src/race/race.hpp"

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/bench_util/timer.hpp"
#include "src/bounds/upper.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/par/parallel_for.hpp"
#include "src/srv/solvers.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::race {

namespace {

/// Tolerance for the proved-optimal check against trivial_bound. The bound
/// and served_value sum the same demands in different orders, so they can
/// differ by accumulated rounding even at true optimality.
constexpr double kBoundEps = 1e-9;

/// True when `outcome` ends the race: a completed solution whose value
/// meets the cheap upper bound is provably optimal, so the still-running
/// lanes cannot do better.
bool proves_optimal(const LaneOutcome& outcome, double bound) {
  return outcome.ran && outcome.error.empty() &&
         outcome.status == model::SolveStatus::kComplete &&
         outcome.value + kBoundEps >= bound;
}

/// The family `name` names, checked against the lanes accepted so far:
/// 'race' cannot race itself, and names must be known and distinct.
const srv::SolverFamily* lane_family(
    const std::string& name,
    const std::vector<const srv::SolverFamily*>& lanes) {
  if (name == "race") {
    throw std::invalid_argument("portfolio: 'race' cannot race itself");
  }
  const srv::SolverFamily* family = srv::find_solver_family(name);
  if (family == nullptr) {
    throw std::invalid_argument("portfolio: unknown solver family '" + name +
                                "' (known: " + srv::solver_family_names(", ") +
                                ")");
  }
  for (const srv::SolverFamily* seen : lanes) {
    if (seen == family) {
      throw std::invalid_argument("portfolio: duplicate family '" + name +
                                  "'");
    }
  }
  return family;
}

}  // namespace

std::vector<std::string> parse_portfolio(const std::string& spec) {
  std::vector<std::string> portfolio;
  std::vector<const srv::SolverFamily*> lanes;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    std::string name = spec.substr(begin, end - begin);
    for (char& c : name) {
      if (c == '_') c = '-';  // local_search works unquoted in shells
    }
    if (name.empty()) {
      throw std::invalid_argument("portfolio: empty family name in '" + spec +
                                  "'");
    }
    lanes.push_back(lane_family(name, lanes));
    portfolio.push_back(std::move(name));
    begin = end + 1;
  }
  return portfolio;
}

model::Solution solve(const model::Instance& inst, const RaceConfig& config,
                      RaceStats* stats) {
  static const obs::Counter c_adoptions =
      obs::counter("race.exchange_adoptions");
  static const obs::Counter c_cancelled = obs::counter("race.cancelled");
  static obs::HdrHistogram h_win_ms = obs::hdr_histogram("race.win_ms");
  const obs::ScopedSpan span("race.solve");
  const bench_util::Timer timer;

  if (config.portfolio.empty()) {
    throw std::invalid_argument("race: empty portfolio");
  }
  std::vector<const srv::SolverFamily*> lanes;
  lanes.reserve(config.portfolio.size());
  for (const std::string& name : config.portfolio) {
    lanes.push_back(lane_family(name, lanes));
  }

  RaceStats local_stats;
  RaceStats& st = stats != nullptr ? *stats : local_stats;
  st = RaceStats{};
  st.lanes.resize(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    st.lanes[i].family = lanes[i]->name;
  }

  const core::Deadline& cap = config.solve.deadline;
  if (cap.expired()) {
    // Degrade like every family: feasible empty incumbent, honest status.
    model::Solution sol = model::Solution::empty_for(inst);
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("race");
    verify::debug_postcondition(inst, sol, "race::solve(pre-expired)");
    return sol;
  }

  const double bound = bounds::trivial_bound(inst);
  srv::SolverKey key;
  key.seed = config.seed;
  key.iterations = config.iterations;

  // The race deadline: every lane runs under it and reads its chain, so
  // one cancel() here (cancel-on-winner), or an external cancel or
  // interrupt above `cap`, stops the whole field.
  const core::Deadline race_dl = core::Deadline::after_at_most(-1.0, cap);
  const core::SolveOptions lane_options{race_dl};

  // Each lane writes only its own slot; the phase-B join is the barrier
  // before the selection pass reads them all.
  std::vector<model::Solution> lane_solutions(lanes.size());
  std::atomic<std::uint64_t> adoptions{0};
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> finished{0};
  std::atomic<bool> winner_declared{false};
  std::atomic<std::uint64_t> cancelled_lanes{0};

  // Runs lane `i` to completion and scores its outcome; used inline for
  // phase A and from the phase-B fan-out.
  const auto run_lane = [&](std::size_t i, const model::Solution* seed) {
    // sp-sync: started/adoptions are pure event counters; nothing reads
    // them for control flow until after the phase-B join below, which is
    // the happens-before edge, so relaxed increments suffice.
    started.fetch_add(1, std::memory_order_relaxed);
    LaneOutcome& outcome = st.lanes[i];
    srv::SolverKey lane_key = key;
    lane_key.family = lanes[i]->name;
    try {
      model::Solution sol;
      if (seed != nullptr && lanes[i]->run_seeded != nullptr) {
        adoptions.fetch_add(1, std::memory_order_relaxed);
        sol = lanes[i]->run_seeded(inst, lane_key, lane_options, *seed);
      } else {
        sol = lanes[i]->run(inst, lane_key, lane_options);
      }
      outcome.ran = true;
      outcome.status = sol.status;
      outcome.value = model::served_value(inst, sol);
      lane_solutions[i] = std::move(sol);
    } catch (const std::exception& e) {
      // A structurally inapplicable lane (e.g. exact's tuple-space
      // overflow) scores nothing; the race goes on without it.
      outcome.ran = true;
      outcome.error = e.what();
    }
    // sp-sync: finished is an event counter; the winner's declare below
    // reads started/finished only for the (approximate by design)
    // cancelled metric, and the acq_rel exchange on winner_declared
    // orders the one cancelled_lanes.store against the post-join load.
    finished.fetch_add(1, std::memory_order_relaxed);
    if (proves_optimal(outcome, bound) &&
        !winner_declared.exchange(true, std::memory_order_acq_rel)) {
      // Cancel-on-winner: lanes still running cannot beat a proved
      // optimum; stop them through the race deadline. Only started-but-
      // unfinished lanes count as cancelled -- a phase-A win launches no
      // losers at all (skipped, not cancelled).
      // sp-sync: the cancelled metric is approximate by design (a lane
      // may start or finish while we compute it), so relaxed loads are
      // exactly as good as stronger ones here.
      const std::uint64_t still_running =
          started.load(std::memory_order_relaxed) -
          finished.load(std::memory_order_relaxed);
      cancelled_lanes.store(still_running, std::memory_order_relaxed);
      race_dl.cancel();
      obs::trace_instant("race.winner_declared");
    }
  };

  // Phase A: the greedy lane (when present) runs first, inline. Its result
  // is the warm-start seed for every seedable lane, which keeps the
  // exchange *structural* -- later lanes never read a timing-dependent
  // snapshot -- and gives the earliest possible proved-optimal exit.
  std::size_t greedy_lane = lanes.size();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (std::string_view(lanes[i]->name) == "greedy") greedy_lane = i;
  }
  if (greedy_lane != lanes.size()) run_lane(greedy_lane, nullptr);

  // The seed is greedy's own slot: no lane writes it during Phase B, so
  // every seedable lane reads it without a lock.
  const model::Solution* seed =
      greedy_lane != lanes.size() && st.lanes[greedy_lane].error.empty()
          ? &lane_solutions[greedy_lane]
          : nullptr;

  // Phase B: the remaining lanes race, each on a thread of its own (the
  // caller runs one of them). This host may be a single core -- every lane
  // still *starts* promptly (OS preemption interleaves them), which
  // cancel-on-winner then turns into real wall-time savings.
  if (!winner_declared.load(std::memory_order_acquire)) {
    std::vector<std::size_t> remaining;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (i != greedy_lane) remaining.push_back(i);
    }
    par::parallel_for(remaining.size(),
                      static_cast<unsigned>(remaining.size()),
                      [&](std::size_t r) { run_lane(remaining[r], seed); });
  } else {
    // Phase A already proved optimality: the other lanes are never
    // launched (cheaper than launch-then-cancel; they count as skipped,
    // not cancelled).
  }

  // Deterministic selection over settled outcomes: value, then fixed
  // family priority. Independent of lane completion order by construction.
  std::size_t best = lanes.size();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const LaneOutcome& outcome = st.lanes[i];
    if (!outcome.ran || !outcome.error.empty()) continue;
    if (best == lanes.size() || outcome.value > st.lanes[best].value ||
        (outcome.value == st.lanes[best].value &&
         lanes[i]->priority < lanes[best]->priority)) {
      best = i;
    }
  }
  if (best == lanes.size()) {
    // Every lane errored or was skipped: degrade to the feasible empty
    // solution rather than propagate a lane-specific exception.
    model::Solution sol = model::Solution::empty_for(inst);
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("race");
    verify::debug_postcondition(inst, sol, "race::solve(no-lane)");
    return sol;
  }

  st.winner = lanes[best]->name;
  st.proved_optimal = proves_optimal(st.lanes[best], bound);
  // sp-sync: every lane finished before the phase-B join above, so these
  // relaxed loads see the final counter values; no concurrent writers.
  st.cancelled = cancelled_lanes.load(std::memory_order_relaxed);
  st.exchange_adoptions = adoptions.load(std::memory_order_relaxed);
  st.win_ms = timer.elapsed_ms();

  c_adoptions.add(st.exchange_adoptions);
  c_cancelled.add(st.cancelled);
  // Rare path (once per race): composed-name registration is fine here,
  // same as core::note_expired.
  obs::counter(std::string("race.winner.") + st.winner).inc();
  h_win_ms.observe(st.win_ms);

  model::Solution result = std::move(lane_solutions[best]);
  if (st.proved_optimal) {
    // The winner ran to completion at the upper bound; cancelled losers
    // provably could not have beaten it, so their truncation does not
    // taint the race's status.
    result.status = st.lanes[best].status;
  } else {
    // Honest composition: the race is complete only if every lane that
    // could have contributed ran to completion. Lanes that never ran or
    // errored count as exhausted budget -- the race did not extract their
    // answer.
    model::SolveStatus status = model::SolveStatus::kComplete;
    for (const LaneOutcome& outcome : st.lanes) {
      status = model::worst_of(
          status, outcome.ran && outcome.error.empty()
                      ? outcome.status
                      : model::SolveStatus::kBudgetExhausted);
    }
    result.status = status;
  }
  if (result.status == model::SolveStatus::kBudgetExhausted) {
    core::note_expired("race");
  }
  verify::debug_postcondition(inst, result, "race::solve");
  return result;
}

}  // namespace sectorpack::race
