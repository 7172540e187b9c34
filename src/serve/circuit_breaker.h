#ifndef GOALREC_SERVE_CIRCUIT_BREAKER_H_
#define GOALREC_SERVE_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/random.h"

// Per-rung circuit breaker for the serving ladder. A rung that keeps
// failing — injected faults, sustained latency spikes pushing it past its
// deadline slice — should be skipped at admission time instead of burning
// every query's budget before the ladder falls through to the floor. The
// breaker is the classic three-state machine:
//
//   closed    → every attempt allowed; `failure_threshold` consecutive
//               failures trip it open.
//   open      → every attempt refused until `open_cooldown` has elapsed
//               (optionally stretched by seeded jitter so a fleet of
//               breakers does not re-probe in lockstep).
//   half-open → up to kHalfOpenProbes attempts are let through as
//               probes; kHalfOpenSuccesses successes close the breaker,
//               any failure re-opens it (cooldown restarts).
//
// Time is read through an injectable clock and jitter through a seeded
// util::Rng, so state trajectories are deterministic in tests: same seed,
// same clock steps, same transitions.

namespace goalrec::serve {

/// Attempts admitted as probes while half-open.
inline constexpr int kHalfOpenProbes = 3;
/// Probe successes required to close again.
inline constexpr int kHalfOpenSuccesses = 2;

struct CircuitBreakerOptions {
  /// Consecutive failures (while closed) that trip the breaker.
  int failure_threshold = 5;
  /// How long an open breaker refuses attempts before probing.
  std::chrono::milliseconds open_cooldown{1000};
  /// Each open cooldown is stretched by a factor drawn uniformly from
  /// [1, 1 + cooldown_jitter]; 0 disables jitter.
  double cooldown_jitter = 0.0;
  /// Seed of the jitter stream; equal seeds replay equal stretches.
  uint64_t seed = 1;
  /// Test seam: the breaker's notion of "now". Defaults to the steady
  /// clock.
  std::function<std::chrono::steady_clock::time_point()> now;
};

class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  explicit CircuitBreaker(CircuitBreakerOptions options);

  /// True when an attempt may proceed. Consumes a probe slot when
  /// half-open; flips open → half-open once the cooldown has elapsed.
  /// Thread-safe.
  bool Allow();

  /// Reports the outcome of an attempt that Allow() admitted.
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  /// Open → half-open → open → ... transitions taken so far, by target
  /// state. Closed-state entries are counted under kClosed.
  int64_t transitions_to(State state) const;

 private:
  /// Moves open → half-open if the cooldown has elapsed. Caller holds
  /// mutex_.
  void MaybeProbeLocked();
  void TransitionLocked(State next);

  mutable std::mutex mutex_;
  CircuitBreakerOptions options_;
  util::Rng rng_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probes_issued_ = 0;
  int probe_successes_ = 0;
  std::chrono::steady_clock::time_point open_until_{};
  std::chrono::steady_clock::time_point half_open_since_{};
  int64_t transitions_[3] = {0, 0, 0};
};

const char* CircuitBreakerStateToString(CircuitBreaker::State state);

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_CIRCUIT_BREAKER_H_
