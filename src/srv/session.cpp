#include "src/srv/session.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "src/core/deadline.hpp"
#include "src/sectors/sectors.hpp"
#include "src/srv/engine.hpp"
#include "src/verify/verify.hpp"

namespace sectorpack::srv {

namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

}  // namespace

Session::Session(model::Instance inst, SolverKey key)
    : inst_(std::move(inst)),
      key_(std::move(key)),
      solution_(model::Solution::empty_for(inst_)) {
  const std::size_t n = inst_.num_customers();
  const std::size_t k = inst_.num_antennas();
  sid_.resize(n);
  term_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sid_[i] = i;
    term_[i] = term_at(i);
  }
  next_sid_ = n;
  band_fp_.assign(k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    for (const std::size_t i : inst_.band(j)) band_fp_[j] += term_[i];
  }
  ensure_antenna_slots();
}

std::uint64_t Session::term_at(std::size_t i) const {
  // Chained splitmix64 over the sid and the exact bit patterns of the four
  // numbers evaluation sees. None of them can be -0.0 here (theta is
  // normalized into [0, 2*pi), radius >= 0 by construction, demand > 0 and
  // value > 0 by validation), so no sign-collapsing is needed.
  std::uint64_t h =
      knapsack::fingerprint_mix(static_cast<std::uint64_t>(sid_[i]));
  h = knapsack::fingerprint_mix(h ^
                                std::bit_cast<std::uint64_t>(inst_.theta(i)));
  h = knapsack::fingerprint_mix(h ^
                                std::bit_cast<std::uint64_t>(inst_.radius(i)));
  h = knapsack::fingerprint_mix(h ^
                                std::bit_cast<std::uint64_t>(inst_.demand(i)));
  h = knapsack::fingerprint_mix(h ^
                                std::bit_cast<std::uint64_t>(inst_.value(i)));
  return h;
}

std::size_t Session::index_of_sid(std::size_t sid) const {
  const auto it = std::lower_bound(sid_.begin(), sid_.end(), sid);
  if (it == sid_.end() || *it != sid) return kNoIndex;
  return static_cast<std::size_t>(it - sid_.begin());
}

void Session::ensure_antenna_slots() {
  const std::size_t k = inst_.num_antennas();
  if (caches_.size() < k) caches_.resize(k);
  if (memo_.size() < k) memo_.resize(k);
}

ResolveStats Session::solve_initial(const core::SolveOptions& opts) {
  return resolve(opts);
}

ResolveStats Session::customer_add(const model::Customer& c,
                                   const core::SolveOptions& opts) {
  const std::size_t i = inst_.add_customer(c);  // throws before mutating
  sid_.push_back(next_sid_++);
  term_.push_back(term_at(i));
  const std::size_t k = inst_.num_antennas();
  for (std::size_t j = 0; j < k; ++j) {
    if (inst_.in_range(i, j)) band_fp_[j] += term_[i];
  }
  ++deltas_;
  return resolve(opts);
}

ResolveStats Session::customer_remove(std::size_t customer,
                                      const core::SolveOptions& opts) {
  if (customer >= inst_.num_customers()) {
    throw std::out_of_range("customer_remove: index out of range");
  }
  // Radial membership must be read before the records shift.
  const std::uint64_t term = term_[customer];
  const std::size_t k = inst_.num_antennas();
  std::vector<bool> in_band(k, false);
  for (std::size_t j = 0; j < k; ++j) {
    in_band[j] = inst_.in_range(customer, j);
  }
  inst_.remove_customer(customer);
  sid_.erase(sid_.begin() + static_cast<std::ptrdiff_t>(customer));
  term_.erase(term_.begin() + static_cast<std::ptrdiff_t>(customer));
  for (std::size_t j = 0; j < k; ++j) {
    if (in_band[j]) band_fp_[j] -= term;
  }
  ++deltas_;
  return resolve(opts);
}

ResolveStats Session::demand_set(std::size_t customer, double demand,
                                 const core::SolveOptions& opts) {
  if (customer >= inst_.num_customers()) {
    throw std::out_of_range("demand_set: index out of range");
  }
  const std::uint64_t old_term = term_[customer];
  inst_.set_demand(customer, demand);  // throws before mutating
  const std::uint64_t new_term = term_at(customer);
  term_[customer] = new_term;
  const std::size_t k = inst_.num_antennas();
  for (std::size_t j = 0; j < k; ++j) {
    // Radial membership is position-only, so it is unchanged; the band
    // fingerprint swaps the one term.
    if (inst_.in_range(customer, j)) {
      band_fp_[j] += new_term;
      band_fp_[j] -= old_term;
    }
  }
  // The sid did not change, so every OracleCache entry whose window
  // contains this customer still matches its member-set key while its
  // stored packing reflects the OLD demand -- those hits would be wrong.
  // The oracle caches key by sid alone and must go; the pick memos key by
  // the per-customer terms (which embed the demand) and stay sound.
  caches_.clear();
  ensure_antenna_slots();
  ++deltas_;
  return resolve(opts);
}

ResolveStats Session::antenna_add(const model::AntennaSpec& spec,
                                  const core::SolveOptions& opts) {
  const std::size_t j = inst_.add_antenna(spec);  // throws before mutating
  std::uint64_t fp = 0;
  for (const std::size_t i : inst_.band(j)) fp += term_[i];
  band_fp_.push_back(fp);
  // Existing caches/memos stay: each slot is a pure function of its own
  // antenna's unchanged spec. (If the fleet was identical and the new
  // antenna breaks that, slot 0's entries still describe antenna 0's spec,
  // which is the only antenna the non-identical replay reads slot 0 for.)
  ensure_antenna_slots();
  ++deltas_;
  return resolve(opts);
}

ResolveStats Session::resolve(const core::SolveOptions& opts) {
  if (key_.family == "greedy") return replay_greedy(opts);
  // Non-greedy families (local search, annealing, ...) mutate orientations
  // non-monotonically; there is no round structure to memoize. Fall back to
  // the shared dispatch -- trivially byte-identical to a fresh solve.
  ResolveStats stats;
  solution_ = run_solver(inst_, key_, opts);
  return stats;
}

ResolveStats Session::replay_greedy(const core::SolveOptions& opts) {
  ResolveStats stats;
  stats.incremental = true;
  const std::size_t k = inst_.num_antennas();
  // The config run_solver dispatches "greedy" with.
  sectors::GreedyConfig config;
  config.solve = opts;
  const bool identical = inst_.antennas_identical();

  // Unserved-in-band fingerprint per antenna, rolled forward as rounds
  // commit; this is the memo key for an (antenna, round) evaluation.
  std::vector<std::uint64_t> unserved_fp = band_fp_;

  const auto evaluate = [&](std::size_t j, const std::vector<bool>& served) {
    const std::size_t slot = identical ? 0 : j;
    auto& memo = memo_[slot];
    const std::uint64_t key = unserved_fp[j];
    ++stats.evals;
    // Memo hit: replay the stored verdict, mapping sids back to current
    // instance indices. A sid that no longer resolves, or resolves to a
    // served customer, means the 64-bit key collided with a different
    // member set -- drop the entry and sweep instead.
    if (const auto it = memo.find(key); it != memo.end()) {
      single::WindowChoice pick;
      pick.alpha = it->second.alpha;
      pick.value = it->second.value;
      pick.chosen.reserve(it->second.chosen_sids.size());
      for (const std::size_t sid : it->second.chosen_sids) {
        const std::size_t i = index_of_sid(sid);
        if (i == kNoIndex || served[i]) break;
        pick.chosen.push_back(i);
      }
      if (pick.chosen.size() == it->second.chosen_sids.size()) {
        ++stats.memo_hits;
        return pick;
      }
      memo.erase(it);
    }
    // The sweep keys the OracleCache by sid rather than instance index:
    // ids never reach the output bytes, and sids survive index shifts
    // across deltas.
    ++stats.fresh_evals;
    single::WindowChoice pick = sectors::sweep_unserved(
        inst_, j, served, config, &caches_[slot], sid_);
    // Never memoize a deadline-truncated sweep: its verdict depends on
    // where the clock ran out, not on the member set alone.
    if (pick.complete && memo.size() < kMemoMaxEntries) {
      MemoPick m;
      m.value = pick.value;
      m.alpha = pick.alpha;
      m.chosen_sids.reserve(pick.chosen.size());
      for (const std::size_t i : pick.chosen) m.chosen_sids.push_back(sid_[i]);
      memo.emplace(key, std::move(m));
    }
    return pick;
  };

  // Roll the committed customers out of every antenna's unserved-band
  // fingerprint (they can no longer appear in a later round's window).
  const auto committed = [&](std::size_t, const single::WindowChoice& pick) {
    for (std::size_t j = 0; j < k; ++j) {
      for (const std::size_t i : pick.chosen) {
        if (inst_.in_range(i, j)) unserved_fp[j] -= term_[i];
      }
    }
  };

  model::Solution sol = sectors::greedy_rounds(inst_, config.solve.deadline,
                                               evaluate, committed);
  if (sol.status == model::SolveStatus::kBudgetExhausted) {
    core::note_expired("srv.session");
  }

  // Runtime backstop against 64-bit fingerprint collisions: an aliased memo
  // or cache hit that slipped past the liveness check above would produce
  // an infeasible assignment (double-serve, capacity breach). Verify is
  // O(n + k) -- noise next to a solve -- so every replay pays it; on
  // failure the session drops all derived state and answers from scratch.
  const verify::VerifyReport report = verify::verify_solution(inst_, sol);
  if (!report.ok) {
    caches_.clear();
    memo_.clear();
    ensure_antenna_slots();
    solution_ = run_solver(inst_, key_, opts);
    ResolveStats fallback;
    return fallback;
  }

  solution_ = std::move(sol);
  stats.dirty_ratio =
      stats.evals > 0 ? static_cast<double>(stats.fresh_evals) /
                            static_cast<double>(stats.evals)
                      : 0.0;
  return stats;
}

std::string SessionStore::create(model::Instance inst, SolverKey key) {
  std::string id = "s" + std::to_string(next_id_++);
  sessions_.emplace(id,
                    std::make_unique<Session>(std::move(inst), std::move(key)));
  return id;
}

Session* SessionStore::find(const std::string& id) {
  const auto it = sessions_.find(id);
  return it != sessions_.end() ? it->second.get() : nullptr;
}

bool SessionStore::close(const std::string& id) {
  return sessions_.erase(id) > 0;
}

}  // namespace sectorpack::srv
