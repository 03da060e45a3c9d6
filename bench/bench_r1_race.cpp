// R1 -- portfolio racing vs. its constituent families.
//
// Two regimes, mirroring docs/performance.md "Portfolio racing":
//
//  - contested: a random workload where no family proves optimality.
//    The race must return a value at least as good as the best single
//    family (it selects the best settled lane), and its wall time is
//    compared against running the whole portfolio sequentially -- the
//    honest baseline for "one answer from N solvers".
//
//  - dominant: a saturating instance where local search provably reaches
//    the trivial upper bound. The winner's optimality proof cancels the
//    still-running annealing lane (configured with a huge iteration
//    budget), so the race finishes orders of magnitude before the
//    sequential portfolio would. This is the cancel-on-winner payoff.
//
// Metrics land in BENCH_r1_race.json: per-family and race wall times
// (min/median/p95 over repetitions), the value ratio race/best-family
// (must be >= 1), and the obs snapshot carrying race.winner.<family>,
// race.cancelled and race.exchange_adoptions.

#include "bench_common.hpp"

using namespace bench;

namespace {

/// Every customer inside one narrow arc, one wide-beam antenna with
/// capacity for all of them: local search provably serves everyone, so
/// the race's proved-optimal exit fires deterministically.
model::Instance saturating_instance(std::size_t n) {
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    const double theta =
        0.05 + 0.2 * static_cast<double>(i) / static_cast<double>(n);
    b.add_customer_polar(theta, 5.0 + static_cast<double>(i % 40), 1.0);
  }
  b.add_identical_antennas(1, /*rho=*/1.0, /*range=*/60.0,
                           /*capacity=*/static_cast<double>(n));
  return b.build();
}

constexpr std::size_t kReps = 3;

struct FamilyRun {
  double value = 0.0;
  std::vector<double> times_ms;
};

/// Run one registry family on `inst` through the same dispatch the race
/// lanes use, so the comparison is apples-to-apples.
FamilyRun run_family(const model::Instance& inst, const std::string& name,
                     std::uint64_t iterations) {
  const srv::SolverFamily* family = srv::find_solver_family(name);
  const srv::SolverKey key{name, /*seed=*/1, iterations, ""};
  FamilyRun out;
  model::Solution sol;
  out.times_ms = time_repetitions(
      kReps, [&] { sol = family->run(inst, key, core::SolveOptions{}); });
  out.value = model::served_demand(inst, sol);
  return out;
}

}  // namespace

int main() {
  bench_util::print_experiment_header(std::cout, "R1",
                                      "portfolio racing vs single families");
  BenchReport report("r1_race");

  const std::vector<std::string> portfolio{"greedy", "local-search",
                                           "annealing"};

  // -------------------------------------------------------------------
  // Regime 1: contested random workload, moderate annealing budget.
  {
    const model::Instance inst =
        make_workload(sim::Spatial::kHotspots, /*n=*/1500, /*k=*/6,
                      /*rho=*/0.9, /*capacity_fraction=*/0.35, /*seed=*/71);
    const std::uint64_t iterations = 2000;

    bench_util::Table table({"solver", "value", "median_ms"});
    double best_value = 0.0;
    double sequential_median_ms = 0.0;
    for (const std::string& name : portfolio) {
      const FamilyRun r = run_family(inst, name, iterations);
      best_value = std::max(best_value, r.value);
      sequential_median_ms += summarize_times(r.times_ms).median_ms;
      report.metric_times("contested." + name, r.times_ms);
      report.metric("contested." + name + ".value", r.value);
      table.add_row({name, bench_util::cell(r.value, 0),
                     bench_util::cell(summarize_times(r.times_ms).median_ms,
                                      2)});
    }

    race::RaceConfig config;
    config.portfolio = portfolio;
    config.iterations = iterations;
    race::RaceStats stats;
    model::Solution sol;
    const std::vector<double> race_ms =
        time_repetitions(kReps, [&] { sol = race::solve(inst, config, &stats); });
    const double race_value = model::served_demand(inst, sol);
    table.add_row({"race(" + stats.winner + ")",
                   bench_util::cell(race_value, 0),
                   bench_util::cell(summarize_times(race_ms).median_ms, 2)});
    table.print(std::cout);
    std::cout << "winner=" << stats.winner
              << " value_ratio_vs_best=" << ratio(race_value, best_value)
              << " sequential_portfolio_ms=" << sequential_median_ms << "\n";

    report.metric_times("contested.race", race_ms);
    report.metric("contested.race.value", race_value);
    report.metric("contested.race.value_ratio_vs_best",
                  ratio(race_value, best_value));
    report.metric("contested.sequential_portfolio.median_ms",
                  sequential_median_ms);
  }

  // -------------------------------------------------------------------
  // Regime 2: dominant family + huge annealing budget. Greedy is left
  // out of the portfolio so the win happens in Phase B and the proof
  // must actively cancel the running annealing lane: cancel-on-winner is
  // the difference between ~local-search-speed and minutes of annealing.
  {
    // Big enough that the winner needs tens of milliseconds: the losing
    // lane is then reliably in flight when the proof lands.
    const model::Instance inst = saturating_instance(6000);
    const std::vector<std::string> duel{"local-search", "annealing"};
    const std::uint64_t iterations = 5000000;

    // Annealing standalone at this budget would run for minutes; time the
    // cheap families only and report annealing via the race's cancel.
    double best_value = 0.0;
    bench_util::Table table({"solver", "value", "median_ms"});
    for (const std::string& name : {std::string("greedy"),
                                    std::string("local-search")}) {
      const FamilyRun r = run_family(inst, name, iterations);
      best_value = std::max(best_value, r.value);
      report.metric_times("dominant." + name, r.times_ms);
      report.metric("dominant." + name + ".value", r.value);
      table.add_row({name, bench_util::cell(r.value, 0),
                     bench_util::cell(summarize_times(r.times_ms).median_ms,
                                      2)});
    }

    race::RaceConfig config;
    config.portfolio = duel;
    config.iterations = iterations;
    race::RaceStats stats;
    model::Solution sol;
    const std::vector<double> race_ms =
        time_repetitions(kReps, [&] { sol = race::solve(inst, config, &stats); });
    const double race_value = model::served_demand(inst, sol);
    table.add_row({"race(" + stats.winner + ")",
                   bench_util::cell(race_value, 0),
                   bench_util::cell(summarize_times(race_ms).median_ms, 2)});
    table.print(std::cout);
    std::cout << "winner=" << stats.winner
              << " proved_optimal=" << (stats.proved_optimal ? 1 : 0)
              << " cancelled=" << stats.cancelled
              << " value_ratio_vs_best=" << ratio(race_value, best_value)
              << "\n";

    report.metric_times("dominant.race", race_ms);
    report.metric("dominant.race.value", race_value);
    report.metric("dominant.race.value_ratio_vs_best",
                  ratio(race_value, best_value));
    report.metric("dominant.race.proved_optimal",
                  stats.proved_optimal ? 1.0 : 0.0);
    report.metric("dominant.race.cancelled",
                  static_cast<double>(stats.cancelled));
  }

  report.write();
  return 0;
}
