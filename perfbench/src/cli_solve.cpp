// cli_solve: `sectorpack solve --solver local-search --in X --out Y` as a
// child process, one at a time, on a 2e5-customer disk with 6 thin ring
// antennas. The one-shot planner's path: parse, solve, the flow-window
// bound for the summary line, and the solution write.
//
// Timed run: each op is the child's wall time, spawn to reaped. Traced
// run: cmd_solve's call sequence in-process, once with a recorder that
// records nothing and once with spans, plus geometry probes.

#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "process.hpp"
#include "src/bounds/upper.hpp"
#include "src/model/io.hpp"
#include "src/model/validate.hpp"
#include "src/obs/metrics.hpp"
#include "src/srv/engine.hpp"
#include "src/verify/verify.hpp"
#include "workload.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace model = sectorpack::model;
namespace srv = sectorpack::srv;

namespace {

// The CLI's defaults for `solve`: local-search, seed 1, 2000 iterations.
srv::SolverKey cli_key() { return srv::SolverKey{"local-search", 1, 2000, ""}; }

/// Checks one answer against the in-process reference: byte-identical and
/// passing every verify invariant.
void check_answer(RunResult& result, const model::Instance& inst,
                  const std::string& ref_text, const std::string& text,
                  std::size_t op) {
  if (text != ref_text) {
    result.op_failed("cli_solve op " + std::to_string(op) +
                     ": solution differs from srv::run_solver");
    return;
  }
  const sectorpack::verify::VerifyReport report =
      sectorpack::verify::verify_solution(inst,
                                          model::solution_from_string(text));
  if (!report.ok) {
    result.op_failed("cli_solve op " + std::to_string(op) + ": " +
                     report.to_string());
    return;
  }
  result.op(true);
}

RunResult timed(const Context& ctx) {
  RunResult result;
  const fs::path input = ctx.work / "cli_solve.inst";
  const fs::path output = ctx.work / "cli_solve.sol";
  const std::string log = (ctx.work / "cli_solve.stderr").string();
  const std::vector<std::string> argv = {
      ctx.cli, "solve", "--solver", "local-search", "--in", input.string(),
      "--out", output.string()};

  // Set-up: generate and write the input, then warm up: the binary and the
  // input file into the page cache. A warm-up solve would warm nothing
  // more, since each op is a fresh process.
  EndToEnd e2e;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    e2e.setup_s.push_back(seconds_of([&] {
      write_file(input, model::to_string(cli_solve_instance(ctx.seed)));
      (void)run_child({ctx.cli, "--version"}, log);
      (void)read_file(input);
    }));
  }

  // Reference answer, outside the timed region.
  const model::Instance inst = model::read_instance_file(input.string());
  const std::string ref_text =
      model::to_string(srv::run_solver(inst, cli_key(), {}));

  double busy_ms = 0.0;
  for (std::size_t op = 0; busy_ms < 1e3 * ctx.seconds; ++op) {
    fs::remove(output);
    const ChildResult child = run_child(argv, log);
    busy_ms += child.wall_ms;
    e2e.latency_ms.push_back(child.wall_ms);
    e2e.peak_rss_mb = std::max(e2e.peak_rss_mb, child.max_rss_mb);
    ++e2e.rss_samples;
    if (child.exit_code != 0) {
      result.op_failed("cli_solve op " + std::to_string(op) + ": exit code " +
                       std::to_string(child.exit_code));
      continue;
    }
    check_answer(result, inst, ref_text, read_file(output), op);
  }
  e2e.ops_per_s.push_back(
      ratio(static_cast<double>(e2e.latency_ms.size()), busy_ms / 1e3));
  e2e.served_ratio =
      ratio(model::served_value(inst, model::solution_from_string(ref_text)),
            sectorpack::bounds::trivial_bound(inst));
  e2e.served_samples = e2e.latency_ms.size();
  add_end_to_end(result, e2e);
  return result;
}

/// cmd_solve's sequence inside one op: read, solve, served value,
/// flow-window bound and feasibility (both for its summary line), solution
/// write.
void solve_op(Recorder& rec, const fs::path& input, const fs::path& output,
              model::Instance& inst) {
  {
    const auto s = rec.span("model.read");
    inst = model::read_instance_file(input.string());
  }
  model::Solution sol;
  {
    const auto s = rec.span("sectors.solve");
    sol = srv::run_solver(inst, cli_key(), {});
  }
  const double served = model::served_value(inst, sol);
  double bound = 0.0;
  {
    const auto s = rec.span("bounds.flow_window");
    bound = sectorpack::bounds::flow_window_bound(inst, {});
  }
  bool feasible = false;
  {
    const auto s = rec.span("model.validate");
    feasible = model::is_feasible(inst, sol);
  }
  if (!feasible || served > bound) {
    throw std::runtime_error("cli_solve: infeasible or unbounded answer");
  }
  {
    const auto s = rec.span("model.write");
    write_file(output, model::to_string(sol));
  }
}

RunResult traced(const Context& ctx) {
  RunResult result;
  const fs::path input = ctx.work / "cli_solve.inst";
  const fs::path output = ctx.work / "cli_solve.sol";
  write_file(input, model::to_string(cli_solve_instance(ctx.seed)));
  model::Instance inst = model::read_instance_file(input.string());
  const std::string ref_text =
      model::to_string(srv::run_solver(inst, cli_key(), {}));

  Layers layers;
  Recorder off(false);
  Recorder rec;
  Counters total;
  std::vector<std::size_t> out;
  alternate_ops(
      ctx.seconds, layers,
      [&] {
        return 1e3 * seconds_of([&] { solve_op(off, input, output, inst); });
      },
      [&](std::uint32_t id) {
        const double ms = traced_op(rec, id, total, [&] {
                            solve_op(rec, input, output, inst);
                          }).ms;
        check_answer(result, inst, ref_text, read_file(output), id);
        // Geometry probes on fresh copies. The op's first 32 range queries
        // run flat (the grid's build deferral) and the 33rd builds the
        // grid (grid.builds in the op's counters), so both are timed: one
        // flat in-range query per antenna, and the build.
        {
          const model::Instance copy = inst;
          const auto p = rec.probe(id, "geom.query");
          for (std::size_t j = 0; j < copy.num_antennas(); ++j) {
            copy.in_range_customers(j, out);
          }
        }
        const model::Instance copy = inst;
        const auto p = rec.probe(id, "geom.grid_build");
        (void)copy.polar_grid();
        return ms;
      });

  layers.table = layer_table(rec);
  add_solver_counters(layers, total, layers.traced_op_ms.size());
  add_per_layer(result, layers);
  dump_trace(ctx, "cli_solve", rec);
  return result;
}

}  // namespace

RunResult run_cli_solve(const Context& ctx) {
  return ctx.trace ? traced(ctx) : timed(ctx);
}

}  // namespace perfbench
