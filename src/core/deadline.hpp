#pragma once
// Cooperative cancellation for every solver entry point.
//
// A Deadline is a soft wall-clock budget plus an atomic cancel flag. Solvers
// poll it at coarse, bounded-cost granularity -- per greedy round, per
// annealing iteration, per local-search move, per Dinic phase, per
// branch-and-bound node block, per 64-window block -- so a solver returns
// within (budget + one check interval), never mid-update. On expiry a solver
// does not throw: it stops, finalizes its current incumbent (always a
// feasible solution) and reports model::SolveStatus::kBudgetExhausted.
// See docs/robustness.md for the full degradation contract.
//
// Copies of a Deadline share one flag, so a deadline handed to a solver can
// be cancelled from another thread (admission control, client disconnect).
// The flag also latches the first observed wall-clock expiry: once any
// copy has seen the budget lapse, every later expired() call is a single
// relaxed atomic load, no clock read. Sub-budgets carved out with
// after_at_most stay linked to their cap: cancelling the cap cancels the
// whole subtree, so a drain interrupts shard slices and portfolio-race
// lanes mid-flight instead of letting them run out their slices.
//
// A default-constructed Deadline is unlimited and checks in one branch on a
// null pointer; passing no options keeps solvers bit-identical to their
// pre-deadline behavior.

#include <atomic>
#include <chrono>
#include <memory>

namespace sectorpack::core {

namespace detail {
/// Cancel flag plus the registry of after_at_most children the flag must
/// propagate into. Defined in deadline.cpp; copies of a Deadline share one
/// state node.
struct DeadlineCancelState;
}  // namespace detail

class Deadline {
 public:
  /// Unlimited: never expires, cancel() is a no-op.
  Deadline() noexcept = default;

  [[nodiscard]] static Deadline never() noexcept { return {}; }

  /// Upper bound on a finite wall-clock budget: larger values are clamped
  /// (a steady_clock duration is 64-bit nanoseconds, so an unclamped cast
  /// of e.g. 1e300 s would overflow). ~31.7 years -- behaviorally
  /// unlimited, representationally safe.
  static constexpr double kMaxBudgetSeconds = 1e9;

  /// Expires `seconds` of wall-clock time from now (steady clock). A
  /// non-positive budget is already expired; a finite budget above
  /// kMaxBudgetSeconds is clamped to it. Throws std::invalid_argument
  /// on NaN.
  [[nodiscard]] static Deadline after(double seconds);

  /// No wall-clock budget, but cancellable via cancel().
  [[nodiscard]] static Deadline cancellable();

  /// Deadline for a sub-task running under an enclosing budget `cap`:
  /// expires after `seconds` or when cap's *remaining* budget lapses,
  /// whichever is sooner. A negative or NaN `seconds` means "no own
  /// budget". The result is always cancellable and is *registered as a
  /// child of cap*: a later cancel() of cap (or of any ancestor in a
  /// deeper after_at_most chain) propagates to it immediately, so callers
  /// no longer have to forward cancellation by hand. Propagation is one
  /// way -- a child expiring or being cancelled never touches cap -- and
  /// cap's wall-clock expiry needs no link at all, because the child's
  /// budget is clamped under cap's remaining time at creation. A long-
  /// lived cap does not accumulate dead children: the registry holds weak
  /// references, pruned on each registration.
  [[nodiscard]] static Deadline after_at_most(double seconds,
                                              const Deadline& cap);

  /// True when constructed via after() or cancellable().
  [[nodiscard]] bool limited() const noexcept { return state_ != nullptr; }

  /// True once the budget has lapsed or cancel() was called (on any copy).
  [[nodiscard]] bool expired() const noexcept;

  /// Cooperatively cancel: all copies report expired() from now on, and so
  /// does every (transitive) after_at_most child created under this
  /// deadline as its cap.
  void cancel() const noexcept;

  /// Seconds until expiry: +inf when unlimited, 0 once expired.
  [[nodiscard]] double remaining_seconds() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;

  std::shared_ptr<detail::DeadlineCancelState> state_;  // null = unlimited
  Clock::time_point expiry_{};
  bool has_expiry_ = false;
};

/// Options threaded through every solver entry point. Separate from the
/// per-solver algorithm configs so cross-cutting concerns (budgets, future
/// priorities/affinities) extend in one place.
struct SolveOptions {
  Deadline deadline;
};

/// Record one solver-family expiry: bumps the `deadline.expired.<family>`
/// obs counter and emits a `deadline.expired` trace instant. Called once
/// per solve on the rare expiry path, never in a hot loop.
void note_expired(const char* family);

}  // namespace sectorpack::core
