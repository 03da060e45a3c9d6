#include "src/srv/drain.hpp"

#include <chrono>

namespace sectorpack::srv {

namespace {

/// Monitor cadence: how long a drain can lag the interrupt flag or the
/// budget while no input line arrives to poll inline.
constexpr std::chrono::milliseconds kTick{5};

}  // namespace

Drain::Drain(const char* name, double time_limit,
             const std::atomic<bool>* interrupt)
    : name_(name),
      interrupt_(interrupt),
      run_(time_limit >= 0.0 ? core::Deadline::after(time_limit)
                             : core::Deadline::cancellable()),
      monitor_([this] { monitor(); }) {}

Drain::~Drain() {
  {
    const core::LockGuard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  monitor_.join();
}

core::SolveOptions Drain::arm(double time_limit) const {
  return core::SolveOptions{core::Deadline::after_at_most(time_limit, run_)};
}

bool Drain::draining() {
  const core::LockGuard lock(mu_);
  poll();
  return !reason_.empty();
}

std::string Drain::reason() {
  const core::LockGuard lock(mu_);
  return reason_;
}

void Drain::poll() {
  if (!reason_.empty()) return;
  // sp-sync: relaxed poll of the caller's interrupt flag; the 5 ms monitor
  // tick dominates any propagation delay.
  if (interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed)) {
    reason_ = name_ + " draining (interrupted)";
  } else if (run_.expired()) {
    reason_ = "global time limit exhausted";
  } else {
    return;
  }
  core::note_expired(("srv." + name_).c_str());
  // Every solve in flight is an after_at_most child of run_, so this one
  // cancel reaches all of them.
  run_.cancel();
}

void Drain::monitor() {
  core::UniqueLock lock(mu_);
  while (!cv_.wait_for(lock, kTick, [this] {
    mu_.assert_held();  // CondVar::wait_for re-acquires mu_ around us
    return stop_;
  })) {
    poll();
  }
}

}  // namespace sectorpack::srv
