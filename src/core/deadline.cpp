#include "src/core/deadline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace sectorpack::core {

namespace detail {

/// Shared between all copies of one Deadline. `cancelled` is the one-way
/// latch cancel() sets and expired() reads and sets; `parent` (the cap the
/// node was carved from) and `interrupt` (a root's external flag) are fixed
/// at construction, so reading them needs no lock. Links point child ->
/// parent only and a parent always exists before its child, so every chain
/// ends at a root.
struct DeadlineNode {
  DeadlineNode(std::shared_ptr<const DeadlineNode> parent_node,
               const std::atomic<bool>* interrupt_flag)
      : parent(std::move(parent_node)), interrupt(interrupt_flag) {}

  std::atomic<bool> cancelled{false};
  const std::shared_ptr<const DeadlineNode> parent;
  const std::atomic<bool>* const interrupt;
};

}  // namespace detail

namespace {

using detail::DeadlineNode;

/// True when `node` or one of its ancestors is cancelled or watches a set
/// interrupt flag. Never reads an ancestor's clock: after_at_most clamped
/// each child's budget under its cap's remaining time, so the node's own
/// clock lapses first.
bool chain_tripped(const DeadlineNode* node) noexcept {
  for (; node != nullptr; node = node->parent.get()) {
    // sp-sync: relaxed one-way flags (see Deadline::expired()); a check
    // that lags a cancel or a signal by a few loads extends a solve by one
    // loop iteration.
    if (node->cancelled.load(std::memory_order_relaxed) ||
        (node->interrupt != nullptr &&
         // sp-sync: as above.
         node->interrupt->load(std::memory_order_relaxed))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Deadline Deadline::make(double seconds,
                        std::shared_ptr<const DeadlineNode> parent,
                        const std::atomic<bool>* interrupt) {
  Deadline d;
  d.state_ = std::make_shared<DeadlineNode>(std::move(parent), interrupt);
  if (seconds <= 0.0) {
    // sp-sync: relaxed one-way latch (see expired()); no reader yet.
    d.state_->cancelled.store(true, std::memory_order_relaxed);
  }
  if (std::isfinite(seconds)) {
    // Clamp: steady_clock durations are (at most) signed 64-bit
    // nanoseconds, so casting a huge finite budget (say 1e300 s, which a
    // JSON time_limit can legally spell) overflows the duration_cast into
    // an undefined expiry. kMaxBudgetSeconds (~31.7 years) is indistinguishable
    // from unlimited for any real request and still fits with room to spare.
    d.has_expiry_ = true;
    d.expiry_ = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        std::clamp(seconds, 0.0, kMaxBudgetSeconds)));
  }
  return d;
}

Deadline Deadline::after(double seconds) {
  if (std::isnan(seconds)) {
    throw std::invalid_argument("Deadline::after: budget is NaN");
  }
  return make(seconds, nullptr, nullptr);
}

Deadline Deadline::cancellable(const std::atomic<bool>* interrupt) {
  return make(std::numeric_limits<double>::infinity(), nullptr, interrupt);
}

Deadline Deadline::after_at_most(double seconds, const Deadline& cap) {
  const double cap_left = cap.remaining_seconds();  // +inf when unlimited
  const bool own_budget = seconds >= 0.0;  // NaN and negatives: no budget
  const double budget = own_budget ? std::min(seconds, cap_left) : cap_left;
  // The budget already encodes cap's wall-clock expiry; the link carries
  // an explicit cancel() of cap -- a race declaring its winner -- and a
  // root's interrupt flag (SIGINT) to the child.
  return make(budget, cap.state_, nullptr);
}

bool Deadline::expired() const noexcept {
  if (!state_) return false;
  // sp-sync: relaxed one-way latch; the flag only ever flips false->true,
  // no data is published through it, and a check that lags a cancel by a
  // few loads just extends a solve by one loop iteration.
  if (state_->cancelled.load(std::memory_order_relaxed)) return true;
  if ((has_expiry_ && Clock::now() >= expiry_) ||
      chain_tripped(state_.get())) {
    // Latch so subsequent checks (on any copy) read one load.
    // sp-sync: relaxed one-way latch (see above).
    state_->cancelled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void Deadline::cancel() const noexcept {
  // sp-sync: relaxed one-way latch (see expired()); descendants read it.
  if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
}

double Deadline::remaining_seconds() const noexcept {
  if (!state_) return std::numeric_limits<double>::infinity();
  if (chain_tripped(state_.get())) return 0.0;  // reads, never latches
  if (!has_expiry_) return std::numeric_limits<double>::infinity();
  const double left =
      std::chrono::duration<double>(expiry_ - Clock::now()).count();
  return left > 0.0 ? left : 0.0;
}

void note_expired(const char* family) {
  // Rare path (at most once per solve): registering by composed name here
  // is fine, no static handle needed.
  obs::counter(std::string("deadline.expired.") + family).inc();
  obs::trace_instant("deadline.expired");
}

}  // namespace sectorpack::core
