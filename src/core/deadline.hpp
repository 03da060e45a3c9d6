#pragma once
// Cooperative cancellation for every solver entry point.
//
// A Deadline is a soft wall-clock budget plus an atomic cancel latch. Solvers
// poll it at coarse, bounded-cost granularity -- per greedy round, per
// annealing iteration, per local-search move, per Dinic phase, per
// branch-and-bound node block, per 64-window block -- so a solver returns
// within (budget + one check interval), never mid-update. On expiry a solver
// does not throw: it stops, finalizes its current incumbent (always a
// feasible solution) and reports model::SolveStatus::kBudgetExhausted.
// See docs/robustness.md for the full degradation contract.
//
// Copies of a Deadline share one node, so a deadline handed to a solver can
// be cancelled from another thread (admission control, client disconnect).
// Cancellation is read, never pushed: cancel() sets only its node's latch,
// and expired() reads that latch, the node's own clock, then the latch and
// interrupt flag of every ancestor -- the caps it was carved from with
// after_at_most, up to a root that may watch an external flag (SIGINT) --
// and latches itself on the first hit. So a drain that cancels or flags a
// cap stops shard slices and portfolio-race lanes mid-flight, and once a
// copy has seen expiry every later expired() call is one relaxed load.
//
// A default-constructed Deadline is unlimited and checks in one branch on a
// null pointer; passing no options keeps solvers bit-identical to their
// pre-deadline behavior.

#include <atomic>
#include <chrono>
#include <memory>

namespace sectorpack::core {

namespace detail {
/// Cancel latch plus the fixed links to the cap the node was carved from
/// and, on a root, the interrupt flag it watches. Defined in deadline.cpp;
/// copies of a Deadline share one node.
struct DeadlineNode;
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

  /// No wall-clock budget, but cancellable via cancel(). A non-null
  /// `interrupt` roots the deadline on that flag: it and every
  /// after_at_most descendant read expired once the flag reads true. The
  /// flag must outlive every deadline under this root.
  [[nodiscard]] static Deadline cancellable(
      const std::atomic<bool>* interrupt = nullptr);

  /// Deadline for a sub-task running under an enclosing budget `cap`:
  /// expires after `seconds` or when cap's *remaining* budget lapses,
  /// whichever is sooner. A negative or NaN `seconds` means "no own
  /// budget". The result is always cancellable and keeps a fixed link to
  /// cap: a cancel() anywhere up its chain, or a set flag at its root,
  /// reads as expiry at its next check. The link is one way -- a child
  /// never touches cap -- and never reads cap's clock: the child's budget
  /// is already clamped under cap's remaining time.
  [[nodiscard]] static Deadline after_at_most(double seconds,
                                              const Deadline& cap);

  /// True when constructed via after() or cancellable().
  [[nodiscard]] bool limited() const noexcept { return state_ != nullptr; }

  /// True once the budget has lapsed, cancel() was called (on any copy),
  /// or an ancestor was cancelled or saw its interrupt flag set.
  [[nodiscard]] bool expired() const noexcept;

  /// Cooperatively cancel: all copies report expired() from now on, and so
  /// does every (transitive) after_at_most child created under this
  /// deadline as its cap, at its next check.
  void cancel() const noexcept;

  /// Seconds until expiry: +inf when unlimited, 0 once expired (an
  /// ancestor's cancel or interrupt included).
  [[nodiscard]] double remaining_seconds() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;

  /// A limited deadline of `seconds` (+inf: no clock) on a new node linked
  /// to `parent` and watching `interrupt`; both links are fixed here.
  static Deadline make(double seconds,
                       std::shared_ptr<const detail::DeadlineNode> parent,
                       const std::atomic<bool>* interrupt);

  std::shared_ptr<detail::DeadlineNode> state_;  // null = unlimited
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
