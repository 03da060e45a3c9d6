#include "src/srv/drain.hpp"

namespace sectorpack::srv {

Drain::Drain(const char* name, double time_limit,
             const std::atomic<bool>* interrupt)
    : name_(name),
      interrupt_(interrupt),
      run_(core::Deadline::after_at_most(
          time_limit, core::Deadline::cancellable(interrupt))) {}

core::SolveOptions Drain::arm(double time_limit) const {
  return core::SolveOptions{core::Deadline::after_at_most(time_limit, run_)};
}

bool Drain::draining() {
  const core::LockGuard lock(mu_);
  // Only this call latches run_ (arm() reads it without latching), so the
  // first expiry it sees is seen here. The flag is read after the chain:
  // a flag the chain saw is seen again, so an interrupt is never named as
  // a lapsed budget.
  if (reason_.empty() && run_.expired()) {
    // sp-sync: relaxed read of the caller's interrupt flag; coherence
    // orders it after the chain's load of the same flag above.
    reason_ = interrupt_ != nullptr &&
                      interrupt_->load(std::memory_order_relaxed)
                  ? name_ + " draining (interrupted)"
                  : "global time limit exhausted";
    core::note_expired(("srv." + name_).c_str());
  }
  return !reason_.empty();
}

std::string Drain::reason() {
  const core::LockGuard lock(mu_);
  return reason_;
}

}  // namespace sectorpack::srv
