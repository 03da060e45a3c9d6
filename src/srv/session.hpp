#pragma once
// Session layer for `sectorpack serve`: long-lived instances under churn.
//
// A session owns a mutable model::Instance plus the cached state that makes
// re-solving after a delta (customer arrives/leaves, demand drift, antenna
// added) much cheaper than a from-scratch solve, while staying *byte-
// identical* to one: Session::solution() after any delta equals what
// srv::run_solver would return on a fresh Instance built from the same
// post-delta records. That contract is what lets `check.sh --serve` and the
// randomized cross-check test diff the two paths bitwise.
//
// The incremental path applies to the greedy family (the serving solver:
// deterministic, anytime, and round-structured). Greedy commits one
// (antenna, window, packed set) per round, and each round's verdict for an
// antenna is a pure function of (antenna spec, unserved in-band customer
// set). The session exploits that with a dirty-window memo:
//
//   * every customer gets a *stable session id* (sid), strictly ascending
//     in instance order (appends take fresh ids, removals keep order), and
//     a 64-bit fingerprint term hashing (sid, theta, radius, demand,
//     value);
//   * per antenna, the session maintains the wrapping sum of terms over its
//     radial band -- an order-independent fingerprint of the in-band set,
//     updated in O(k) per delta;
//   * the replay drives sectors::greedy_rounds, the round loop behind
//     sectors::solve_greedy, with a memo-then-sweep hook. Within one
//     replay the loop itself reuses an antenna's verdict until a commit
//     takes a customer from its band (sectors::Verdicts), so the hook is
//     asked only for an antenna's first round and for rounds after such a
//     commit. Each evaluation it is asked for is keyed by the current
//     unserved-in-band fingerprint. A memo hit replays the stored window
//     verdict (value, alpha, chosen sids); only fingerprints the delta
//     actually dirtied pay a real window sweep (sectors::sweep_unserved) --
//     and those sweeps run against the per-session knapsack::OracleCache,
//     so even a dirty antenna mostly replays cached window packings. The
//     loop's verdict table holds instance indices, which a delta shifts, so
//     it lives for one replay; the memo is what carries verdicts across
//     deltas.
//
// Equality of fingerprints implies (up to the same 64-bit collision
// exposure the OracleCache already accepts, and backstopped by the
// src/verify/ invariants below) an identical evaluation input, and every
// stage downstream of the input is deterministic, so a memoized verdict is
// bitwise what the sweep would have recomputed. Deadline-truncated sweeps
// (WindowChoice::complete == false) are never memoized. Non-greedy
// sessions fall back to a full run_solver per delta (trivially identical).
//
// Cache soundness across deltas: adds introduce fresh sids (never seen by
// any cache); removals retire sids (stale entries become unreachable keys);
// a demand change keeps the sid, so the member-set fingerprints inside the
// OracleCache would alias the old demand -- demand_set therefore clears the
// per-session oracle caches (the pick memo keys include demands via the
// terms, so it survives). antenna_add extends the cache/memo arrays and
// keeps existing entries (each is a pure function of its own antenna's
// spec, which did not change).
//
// Thread model: a Session is confined to the serve loop's thread; only the
// core::Deadline handed into a delta reads state another thread writes:
// the interrupt flag at its root, which the SIGINT handler sets.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/knapsack/incremental.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/instance.hpp"
#include "src/model/solution.hpp"
#include "src/srv/fingerprint.hpp"

namespace sectorpack::srv {

/// How a session answered one register/delta. The counts cover only the
/// (antenna, round) evaluations the round loop asks for: a round that
/// replays a clean verdict from earlier in the same replay asks for none.
struct ResolveStats {
  bool incremental = false;    // greedy replay (vs full run_solver dispatch)
  std::size_t evals = 0;       // evaluations the round loop asked for
  std::size_t memo_hits = 0;   // served from the window-fingerprint memo
  std::size_t fresh_evals = 0; // dirty: paid a real window sweep
  /// fresh_evals / evals -- the dirty-window ratio (0 when nothing was
  /// evaluated). 1.0 on the initial solve, near 0 for a localized delta.
  double dirty_ratio = 0.0;
};

class Session {
 public:
  /// Takes ownership of the instance; solve_initial() must run before the
  /// first delta (the serve engine does this at `register`).
  Session(model::Instance inst, SolverKey key);

  [[nodiscard]] const model::Instance& instance() const noexcept {
    return inst_;
  }
  [[nodiscard]] const SolverKey& solver() const noexcept { return key_; }
  /// The current solution (for the current, post-delta instance).
  [[nodiscard]] const model::Solution& solution() const noexcept {
    return solution_;
  }
  /// Deltas applied since registration.
  [[nodiscard]] std::uint64_t deltas() const noexcept { return deltas_; }

  /// Cold solve at registration; warms the window memos on the greedy path.
  ResolveStats solve_initial(const core::SolveOptions& opts);

  /// Apply one delta and re-solve. Validation failures (bad demand, index
  /// out of range, bad antenna spec) throw std::invalid_argument /
  /// std::out_of_range *before* any state changes -- the session stays on
  /// its previous instance and solution. Customer indices are current
  /// instance indices; customer_remove shifts the ones above it down.
  ResolveStats customer_add(const model::Customer& c,
                            const core::SolveOptions& opts);
  ResolveStats customer_remove(std::size_t customer,
                               const core::SolveOptions& opts);
  ResolveStats demand_set(std::size_t customer, double demand,
                          const core::SolveOptions& opts);
  ResolveStats antenna_add(const model::AntennaSpec& spec,
                           const core::SolveOptions& opts);

 private:
  friend struct SessionTestPeer;  // tests/test_serve.cpp forges memo entries

  struct MemoPick {
    double value = 0.0;
    double alpha = 0.0;
    std::vector<std::size_t> chosen_sids;  // ascending (chosen is sorted)
  };

  /// Stop inserting (stay correct, like OracleCache) past this many
  /// memoized verdicts per antenna.
  static constexpr std::size_t kMemoMaxEntries = std::size_t{1} << 20;

  ResolveStats resolve(const core::SolveOptions& opts);
  ResolveStats replay_greedy(const core::SolveOptions& opts);
  /// Fingerprint term of customer `i` as currently in the instance, under
  /// its stable id: hash of (sid, theta, radius, demand, value) bits.
  [[nodiscard]] std::uint64_t term_at(std::size_t i) const;
  /// Instance index of a live sid (binary search: sids ascend with index);
  /// SIZE_MAX when the sid was retired.
  [[nodiscard]] std::size_t index_of_sid(std::size_t sid) const;
  /// Grow caches_/memo_ to one slot per antenna.
  void ensure_antenna_slots();

  model::Instance inst_;
  SolverKey key_;
  model::Solution solution_;
  std::uint64_t deltas_ = 0;

  std::vector<std::size_t> sid_;    // instance index -> stable session id
  std::vector<std::uint64_t> term_; // instance index -> fingerprint term
  std::size_t next_sid_ = 0;
  std::vector<std::uint64_t> band_fp_;  // antenna -> sum of in-band terms

  // Per-antenna window caches. IncrementalOracle borrows a slot's address
  // for one sweep only, and the vector grows only on antenna_add, between
  // resolves. Greedy shares slot 0 across identical antennas; the replay
  // mirrors that indexing (identical ? 0 : j).
  std::vector<knapsack::OracleCache> caches_;
  std::vector<std::unordered_map<std::uint64_t, MemoPick>> memo_;
};

/// Session id ("s0", "s1", ...) -> Session, owned by one serve run.
class SessionStore {
 public:
  /// Creates a session and returns its id.
  std::string create(model::Instance inst, SolverKey key);
  /// nullptr when `id` names no live session.
  [[nodiscard]] Session* find(const std::string& id);
  /// True when `id` existed (and is now closed).
  bool close(const std::string& id);
  void clear() { sessions_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::size_t next_id_ = 0;
};

}  // namespace sectorpack::srv
