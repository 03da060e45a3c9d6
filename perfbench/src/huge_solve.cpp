// huge_solve: in-process srv::run_solver with local-search (the CLI and
// batch default), one solve at a time on one thread, each on a fresh copy
// of a 1e6-customer instance with 16 thin ring antennas. Copying drops the
// cached polar grid, so every solve pays the grid build, as a caller with a
// newly loaded instance does. No io, no bound, no srv: the solver, sweep,
// oracle and geom::PolarGrid do all the work.
//
// Timed run: each op is the run_solver call (the copy is made before the
// clock starts). Traced run: the same call in an op span, plus probes on
// another fresh copy that time the grid build and one indexed in-range
// query per antenna.

#include <string>
#include <vector>

#include "inputs.hpp"
#include "process.hpp"
#include "src/bounds/upper.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/engine.hpp"
#include "src/verify/verify.hpp"
#include "workload.hpp"

namespace perfbench {

namespace model = sectorpack::model;
namespace srv = sectorpack::srv;

namespace {

srv::SolverKey key() { return srv::SolverKey{"local-search", 1, 2000, ""}; }

/// Every answer must verify and equal the first one (the solver is
/// deterministic and every op solves the same records).
void check_answer(RunResult& result, const model::Instance& inst,
                  const model::Solution& first, const model::Solution& sol,
                  std::size_t op) {
  const std::string where = "huge_solve op " + std::to_string(op) + ": ";
  const sectorpack::verify::VerifyReport report =
      sectorpack::verify::verify_solution(inst, sol);
  if (!report.ok) {
    result.op_failed(where + report.to_string());
  } else if (sol.alpha != first.alpha || sol.assign != first.assign ||
             sol.status != first.status) {
    result.op_failed(where + "answer differs from the first op's");
  } else {
    result.op(true);
  }
}

RunResult timed(const Context& ctx) {
  RunResult result;
  EndToEnd e2e;
  model::Instance base;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    e2e.setup_s.push_back(seconds_of([&] {
      base = huge_solve_instance(ctx.seed);
      const model::Instance copy = base;
      (void)srv::run_solver(copy, key(), {});
    }));
  }

  model::Solution first;
  double busy_ms = 0.0;
  reset_peak_rss();
  for (std::size_t op = 0; busy_ms < 1e3 * ctx.seconds; ++op) {
    const model::Instance copy = base;
    model::Solution sol;
    const double ms =
        1e3 * seconds_of([&] { sol = srv::run_solver(copy, key(), {}); });
    busy_ms += ms;
    e2e.latency_ms.push_back(ms);
    if (op == 0) first = sol;
    check_answer(result, base, first, sol, op);
  }
  e2e.ops_per_s.push_back(
      ratio(static_cast<double>(e2e.latency_ms.size()), busy_ms / 1e3));
  e2e.served_ratio = ratio(model::served_value(base, first),
                           sectorpack::bounds::trivial_bound(base));
  e2e.served_samples = e2e.latency_ms.size();
  e2e.peak_rss_mb = self_peak_rss_mb();
  e2e.rss_samples = 1;
  add_end_to_end(result, e2e);
  return result;
}

RunResult traced(const Context& ctx) {
  RunResult result;
  const model::Instance base = huge_solve_instance(ctx.seed);
  const model::Solution first = [&] {
    const model::Instance copy = base;
    return srv::run_solver(copy, key(), {});
  }();

  Layers layers;
  Recorder rec;
  Counters total;
  std::vector<std::size_t> out;
  model::Instance copy;  // made before each op's clock starts
  alternate_ops(
      ctx.seconds, layers,
      [&] {
        copy = base;
        return 1e3 * seconds_of([&] { (void)srv::run_solver(copy, key(), {}); });
      },
      [&](std::uint32_t id) {
        copy = base;
        model::Solution sol;
        const double ms = traced_op(rec, id, total, [&] {
                            const auto s = rec.span("sectors.solve");
                            sol = srv::run_solver(copy, key(), {});
                          }).ms;
        check_answer(result, base, first, sol, id);
        copy = base;  // a fresh copy again: no grid
        {
          const auto p = rec.probe(id, "geom.grid_build");
          (void)copy.polar_grid();
        }
        const auto p = rec.probe(id, "geom.query");
        for (std::size_t j = 0; j < copy.num_antennas(); ++j) {
          copy.in_range_customers(j, out);
        }
        return ms;
      });

  layers.table = layer_table(rec);
  add_solver_counters(layers, total, layers.traced_op_ms.size());
  add_per_layer(result, layers);
  dump_trace(ctx, "huge_solve", rec);
  return result;
}

}  // namespace

RunResult run_huge_solve(const Context& ctx) {
  return ctx.trace ? traced(ctx) : timed(ctx);
}

}  // namespace perfbench
