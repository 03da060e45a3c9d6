#pragma once
// The one drain `batch` and `serve` share.
//
// Both front ends promise the same thing on SIGINT or when their global
// budget runs out: the solves in flight finish promptly as feasible
// budget-exhausted incumbents, and every line not yet started is answered
// "rejected". A Drain keeps that promise with the deadline chain alone. Its
// run-wide deadline carries the global budget and hangs under a root on the
// interrupt flag, and every solve is armed as an after_at_most child of it,
// so a solve in flight reads SIGINT through its own deadline at its next
// check and runs out with the global budget on its own clock -- no thread
// watches the flag, and nothing is cancelled by hand. draining() reads the
// same deadline before each line starts and once more for the run summary,
// so a drain also starts after the last input line was read.

#include <atomic>
#include <string>

#include "src/core/deadline.hpp"
#include "src/core/sync.hpp"

namespace sectorpack::srv {

class Drain {
 public:
  /// `name` is the front end ("batch" or "serve"): it names the interrupt
  /// reason and the `deadline.expired.srv.<name>` counter. `time_limit` is
  /// the run-wide budget in seconds (< 0 = none); `interrupt` may be null
  /// and must outlive the Drain and every deadline arm() hands out.
  Drain(const char* name, double time_limit,
        const std::atomic<bool>* interrupt);

  /// Options for one solve: its own budget (< 0 = none), clamped under the
  /// run's remaining budget and expired by an interrupt. A solve armed
  /// after the drain started is born expired.
  [[nodiscard]] core::SolveOptions arm(double time_limit) const;

  /// True once a drain started: the interrupt flag is set or the budget
  /// lapsed. The first call that sees it names the reason and bumps the
  /// counter.
  [[nodiscard]] bool draining();

  /// Why the drain started; empty while none has.
  [[nodiscard]] std::string reason();

 private:
  const std::string name_;
  const std::atomic<bool>* const interrupt_;
  const core::Deadline run_;

  // Lock order: mu_ first, then the obs registry (core::note_expired).
  core::Mutex mu_;
  std::string reason_ SP_GUARDED_BY(mu_);
};

}  // namespace sectorpack::srv
