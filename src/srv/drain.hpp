#pragma once
// The one drain `batch` and `serve` share.
//
// Both front ends promise the same thing on SIGINT or when their global
// budget runs out: the solves in flight finish promptly as feasible
// budget-exhausted incumbents, and every line not yet started is answered
// "rejected". A Drain keeps that promise with the deadline tree alone. Its
// run-wide deadline is always cancellable, and every solve is armed as an
// after_at_most child of it, so starting a drain is one cancel() of the run
// deadline that the cancel tree carries to every solve in flight -- no
// ledger of in-flight deadlines. A monitor thread polls the interrupt flag
// and the budget every 5 ms for the Drain's whole life, so a drain also
// starts after the last input line was read.

#include <atomic>
#include <string>
#include <thread>

#include "src/core/deadline.hpp"
#include "src/core/sync.hpp"

namespace sectorpack::srv {

class Drain {
 public:
  /// `name` is the front end ("batch" or "serve"): it names the interrupt
  /// reason and the `deadline.expired.srv.<name>` counter. `time_limit` is
  /// the run-wide budget in seconds (< 0 = none); `interrupt` may be null.
  Drain(const char* name, double time_limit,
        const std::atomic<bool>* interrupt);
  /// Stops and joins the monitor.
  ~Drain();

  Drain(const Drain&) = delete;
  Drain& operator=(const Drain&) = delete;

  /// Options for one solve: its own budget (< 0 = none), clamped under the
  /// run's remaining budget and cancelled by a drain. A solve armed after
  /// the drain started is born expired.
  [[nodiscard]] core::SolveOptions arm(double time_limit) const;

  /// True once a drain started. Polls the interrupt flag and the budget
  /// inline too, so a line read between two monitor ticks cannot slip
  /// past a drain that is already due.
  [[nodiscard]] bool draining();

  /// Why the drain started; empty while none has.
  [[nodiscard]] std::string reason();

 private:
  /// Starts the drain if the interrupt flag is set or the budget lapsed.
  void poll() SP_REQUIRES(mu_);
  void monitor();

  const std::string name_;
  const std::atomic<bool>* const interrupt_;
  const core::Deadline run_;

  // Lock order: mu_ first, then the deadline nodes (run_.cancel()) and the
  // obs registry (core::note_expired).
  core::Mutex mu_;
  core::CondVar cv_;
  bool stop_ SP_GUARDED_BY(mu_) = false;
  std::string reason_ SP_GUARDED_BY(mu_);
  std::thread monitor_;  // last: starts once everything above exists
};

}  // namespace sectorpack::srv
