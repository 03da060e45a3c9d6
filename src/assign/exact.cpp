#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/assign/assign.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::assign {

namespace {

struct ExactState {
  const model::Instance* inst = nullptr;
  const std::vector<std::vector<std::int32_t>>* eligible = nullptr;
  std::vector<std::size_t> order;     // customers, demand descending
  std::vector<double> suffix_value;   // sum of values of order[pos..]
  std::vector<double> suffix_density; // max value/demand over order[pos..]
  std::uint64_t node_limit = 0;
  std::uint64_t nodes = 0;
  core::Deadline deadline;
  bool stopped = false;  // deadline expired: unwind, keep the incumbent

  std::vector<double> residual;
  std::vector<std::int32_t> cur;   // per customer
  std::vector<std::int32_t> best;  // per customer
  double cur_value = 0.0;
  double best_value = 0.0;

  // Poll the deadline every 1024 nodes (including node 0, so an already-
  // expired deadline stops before any search).
  static constexpr std::uint64_t kCheckMask = 1023;

  void dfs(std::size_t pos) {
    if (stopped) return;
    if ((nodes & kCheckMask) == 0 && deadline.expired()) {
      stopped = true;
      return;
    }
    if (++nodes > node_limit) {
      throw std::runtime_error("assign::solve_exact: node limit exceeded");
    }
    if (cur_value > best_value) {
      best_value = cur_value;
      best = cur;
    }
    if (pos == order.size()) return;

    // Relaxation bound: remaining value is capped by the total remaining
    // value and by (residual capacity) * (best remaining value density).
    double total_residual = 0.0;
    for (double r : residual) total_residual += r;
    const double by_capacity = total_residual * suffix_density[pos];
    if (cur_value + std::min(suffix_value[pos], by_capacity) <= best_value) {
      return;
    }

    const std::size_t i = order[pos];
    const double d = inst->demand(i);
    const double v = inst->value(i);
    for (std::int32_t j : (*eligible)[i]) {
      const auto ju = static_cast<std::size_t>(j);
      if (residual[ju] < d) continue;
      residual[ju] -= d;
      cur[i] = j;
      cur_value += v;
      dfs(pos + 1);
      cur_value -= v;
      cur[i] = model::kUnserved;
      residual[ju] += d;
    }
    dfs(pos + 1);  // leave customer i unserved
  }
};

}  // namespace

model::Solution solve_exact(const model::Instance& inst,
                            std::span<const double> alphas,
                            std::uint64_t node_limit,
                            const core::SolveOptions& opts) {
  const std::vector<std::vector<std::int32_t>> eligible =
      per_customer(compute_eligibility(inst, alphas), inst.num_customers());

  ExactState st;
  st.inst = &inst;
  st.eligible = &eligible;
  st.node_limit = node_limit;
  st.deadline = opts.deadline;
  st.order.resize(inst.num_customers());
  std::iota(st.order.begin(), st.order.end(), std::size_t{0});
  std::sort(st.order.begin(), st.order.end(),
            [&](std::size_t a, std::size_t b) {
              if (inst.demand(a) != inst.demand(b)) {
                return inst.demand(a) > inst.demand(b);
              }
              return a < b;
            });
  st.suffix_value.assign(st.order.size() + 1, 0.0);
  st.suffix_density.assign(st.order.size() + 1, 0.0);
  for (std::size_t p = st.order.size(); p-- > 0;) {
    const std::size_t i = st.order[p];
    st.suffix_value[p] = st.suffix_value[p + 1] + inst.value(i);
    st.suffix_density[p] =
        std::max(st.suffix_density[p + 1], inst.value(i) / inst.demand(i));
  }
  st.residual.resize(inst.num_antennas());
  for (std::size_t j = 0; j < inst.num_antennas(); ++j) {
    st.residual[j] = inst.antenna(j).capacity;
  }
  st.cur.assign(inst.num_customers(), model::kUnserved);
  st.best.assign(inst.num_customers(), model::kUnserved);

  st.dfs(0);

  model::Solution sol = model::Solution::empty_for(inst);
  sol.alpha.assign(alphas.begin(), alphas.end());
  for (double& a : sol.alpha) a = geom::normalize(a);
  sol.assign = st.best;
  if (st.stopped) {
    sol.status = model::SolveStatus::kBudgetExhausted;
    core::note_expired("assign_exact");
  }
  verify::debug_postcondition(inst, sol, "assign.exact");
  return sol;
}

}  // namespace sectorpack::assign
