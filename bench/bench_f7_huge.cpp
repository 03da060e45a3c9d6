// F7 -- huge-instance scaling: polar-grid crossover and wedge sharding.
//
// Workload: n customers uniform on a disk of radius 100 with unit demands,
// k = 4 antennas with small distinct ranges (each covers ~0.5% of the disk),
// the regime the spatial index targets -- queries touch a thin annulus of a
// giant point set, so a flat O(n) scan per query is almost pure waste.
//
// Three flat-vs-indexed pairs per size (eligibility, single-antenna solve,
// sectors greedy) are timed with the crossover pinned via
// set_spatial_index_mode; outputs are bit-identical by construction (tested
// in test_polar_grid.cpp), so this bench measures time only. "Flat" is the
// band path: each antenna's sector test over its radial band. The band
// table and the grid are prewarmed and their builds reported as metrics of
// their own: each is paid once per instance and amortized over every query
// a real solve performs, and folding it into one arbitrary repetition would
// just add noise.
//
// The shard solve is timed against the indexed greedy. Honesty note: on a
// single-core host the shard speedup is ~1.0 (it trades seam loss for
// parallelism this machine does not have); the interesting single-core
// numbers are the flat-vs-indexed ratios. A small n pair below the
// crossover threshold is included so the "flat wins when tiny" half of the
// heuristic is measured, not assumed.

#include "bench_common.hpp"

using namespace bench;

namespace {

model::Instance huge_instance(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  model::InstanceBuilder b;
  for (std::size_t i = 0; i < n; ++i) {
    // Uniform on the disk: r = R * sqrt(u).
    b.add_customer_polar(rng.uniform(0.0, geom::kTwoPi),
                         100.0 * std::sqrt(rng.uniform01()), 1.0);
  }
  const double ranges[] = {2.0, 2.4, 2.8, 3.2};
  for (std::size_t j = 0; j < 4; ++j) {
    b.add_antenna(0.7 + 0.1 * static_cast<double>(j), ranges[j],
                  40.0 + 20.0 * static_cast<double>(j));
  }
  return b.build();
}

struct Pair {
  RepStats flat;
  RepStats indexed;
};

// Time `fn` under both forced modes; flat first so the indexed runs reuse
// any instance-level caches the flat runs populated (there are none today;
// the order just makes that true by construction if one appears).
template <typename Fn>
Pair time_modes(std::size_t reps, Fn&& fn) {
  Pair p;
  geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceFlat);
  p.flat = summarize_times(time_repetitions(reps, fn));
  geom::set_spatial_index_mode(geom::SpatialIndexMode::kForceIndexed);
  p.indexed = summarize_times(time_repetitions(reps, fn));
  geom::set_spatial_index_mode(geom::SpatialIndexMode::kAuto);
  return p;
}

double speedup(const Pair& p) {
  return p.indexed.median_ms > 0.0 ? p.flat.median_ms / p.indexed.median_ms
                                   : 0.0;
}

}  // namespace

int main() {
  bench_util::print_experiment_header(
      std::cout, "F7", "huge instances: polar grid crossover + sharding");
  BenchReport report("f7_huge");
  bench_util::Table table({"n", "stage", "flat_med_ms", "idx_med_ms",
                           "speedup"});

  // Below the crossover threshold kAuto stays flat; measure both forced
  // modes to show the flat path is the right default there.
  {
    const model::Instance small = huge_instance(2000, 7);
    std::vector<double> alphas(small.num_antennas(), 0.5);
    const Pair p = time_modes(
        9, [&] { (void)assign::compute_eligibility(small, alphas); });
    report.metric("eligibility_n2000.flat.median_ms", p.flat.median_ms);
    report.metric("eligibility_n2000.indexed.median_ms",
                  p.indexed.median_ms);
    table.add_row({"2000", "eligibility", bench_util::cell(p.flat.median_ms, 3),
                   bench_util::cell(p.indexed.median_ms, 3),
                   bench_util::cell(speedup(p), 2)});
  }

  for (std::size_t n : {std::size_t{100000}, std::size_t{1000000},
                        std::size_t{10000000}}) {
    const std::size_t reps = n <= 100000 ? 5 : (n <= 1000000 ? 3 : 2);
    const std::string tag = "_n" + std::to_string(n);
    const model::Instance inst = huge_instance(n, 42 + n);

    // Band table and grid builds, paid once per instance and reported
    // separately (the queries below run against the warm caches, as every
    // solve after the first query does).
    bench_util::Timer band_timer;
    (void)inst.band(0);
    report.metric("band_build" + tag + ".ms", band_timer.elapsed_ms());
    bench_util::Timer build_timer;
    (void)inst.polar_grid();
    report.metric("grid_build" + tag + ".ms", build_timer.elapsed_ms());

    // Eligibility: k sector queries vs k band scans.
    std::vector<double> alphas(inst.num_antennas(), 0.5);
    {
      const Pair p = time_modes(
          reps, [&] { (void)assign::compute_eligibility(inst, alphas); });
      report.metric("eligibility" + tag + ".flat.median_ms",
                    p.flat.median_ms);
      report.metric("eligibility" + tag + ".indexed.median_ms",
                    p.indexed.median_ms);
      report.metric("eligibility" + tag + ".speedup_median", speedup(p));
      table.add_row({bench_util::cell(n), "eligibility",
                     bench_util::cell(p.flat.median_ms, 2),
                     bench_util::cell(p.indexed.median_ms, 2),
                     bench_util::cell(speedup(p), 2)});
    }

    // Single-antenna solve (unit demands: the uniform fast path).
    {
      const Pair p =
          time_modes(reps, [&] { (void)single::solve_greedy(inst); });
      report.metric("single" + tag + ".flat.median_ms", p.flat.median_ms);
      report.metric("single" + tag + ".indexed.median_ms",
                    p.indexed.median_ms);
      report.metric("single" + tag + ".speedup_median", speedup(p));
      table.add_row({bench_util::cell(n), "single",
                     bench_util::cell(p.flat.median_ms, 2),
                     bench_util::cell(p.indexed.median_ms, 2),
                     bench_util::cell(speedup(p), 2)});
    }

    // Sectors greedy, the end-to-end solver the sharding wraps.
    sectors::GreedyConfig gc;
    gc.oracle = knapsack::Oracle::greedy();
    RepStats greedy_indexed;
    {
      const Pair p = time_modes(
          reps, [&] { (void)sectors::solve_greedy(inst, gc); });
      greedy_indexed = p.indexed;
      report.metric("greedy" + tag + ".flat.median_ms", p.flat.median_ms);
      report.metric("greedy" + tag + ".indexed.median_ms",
                    p.indexed.median_ms);
      report.metric("greedy" + tag + ".speedup_median", speedup(p));
      table.add_row({bench_util::cell(n), "greedy",
                     bench_util::cell(p.flat.median_ms, 2),
                     bench_util::cell(p.indexed.median_ms, 2),
                     bench_util::cell(speedup(p), 2)});
    }

    // Shard solve (kAuto: real deployment configuration).
    {
      shard::ShardConfig sc;
      shard::ShardStats stats;
      const std::vector<double> times =
          time_repetitions(reps, [&] { (void)shard::solve(inst, sc, &stats); });
      const RepStats t = summarize_times(times);
      report.metric_times("shard" + tag, times);
      report.metric("shard" + tag + ".vs_indexed_greedy",
                    t.median_ms > 0.0 ? greedy_indexed.median_ms / t.median_ms
                                      : 0.0);
      report.metric("shard" + tag + ".repair_moved",
                    static_cast<double>(stats.repair_moved));
      table.add_row({bench_util::cell(n), "shard", "-",
                     bench_util::cell(t.median_ms, 2),
                     bench_util::cell(t.median_ms > 0.0
                                          ? greedy_indexed.median_ms /
                                                t.median_ms
                                          : 0.0,
                                      2)});
    }
  }

  table.print(std::cout);
  report.write();
  std::cout << "\nhardware_concurrency = "
            << std::thread::hardware_concurrency()
            << "; shard speedup ~1.0 on a 1-core host is the honest "
               "expectation -- the flat-vs-indexed ratios are the headline "
               "here.\n";
  return 0;
}
