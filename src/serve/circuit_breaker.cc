#include "serve/circuit_breaker.h"

#include "util/logging.h"

namespace goalrec::serve {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(std::move(options)), rng_(options_.seed) {
  GOALREC_CHECK(options_.failure_threshold >= 1);
  if (!options_.now) {
    options_.now = [] { return std::chrono::steady_clock::now(); };
  }
}

bool CircuitBreaker::Allow() {
  std::unique_lock<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      MaybeProbeLocked();
      if (state_ != State::kHalfOpen) return false;
      [[fallthrough]];
    case State::kHalfOpen:
      if (probes_issued_ >= kHalfOpenProbes) {
        // All probes issued but none resolved (e.g. abandoned mid-flight):
        // after another cooldown, grant a fresh probe round rather than
        // refusing forever.
        if (options_.now() - half_open_since_ < options_.open_cooldown) {
          return false;
        }
        probes_issued_ = 0;
        probe_successes_ = 0;
        half_open_since_ = options_.now();
      }
      ++probes_issued_;
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  std::unique_lock<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      if (++probe_successes_ >= kHalfOpenSuccesses) {
        TransitionLocked(State::kClosed);
      }
      break;
    case State::kOpen:
      // A straggler finishing after the trip; ignore.
      break;
  }
}

void CircuitBreaker::RecordFailure() {
  std::unique_lock<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        TransitionLocked(State::kOpen);
      }
      break;
    case State::kHalfOpen:
      // One failed probe is enough evidence; back off again.
      TransitionLocked(State::kOpen);
      break;
    case State::kOpen:
      break;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return state_;
}

int64_t CircuitBreaker::transitions_to(State state) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return transitions_[static_cast<size_t>(state)];
}

void CircuitBreaker::MaybeProbeLocked() {
  if (options_.now() < open_until_) return;
  TransitionLocked(State::kHalfOpen);
}

void CircuitBreaker::TransitionLocked(State next) {
  state_ = next;
  ++transitions_[static_cast<size_t>(next)];
  consecutive_failures_ = 0;
  probes_issued_ = 0;
  probe_successes_ = 0;
  if (next == State::kHalfOpen) half_open_since_ = options_.now();
  if (next == State::kOpen) {
    std::chrono::nanoseconds cooldown = options_.open_cooldown;
    if (options_.cooldown_jitter > 0.0) {
      double stretch = 1.0 + options_.cooldown_jitter * rng_.UniformDouble();
      cooldown = std::chrono::nanoseconds(
          static_cast<int64_t>(static_cast<double>(cooldown.count()) * stretch));
    }
    open_until_ = options_.now() + cooldown;
  }
}

const char* CircuitBreakerStateToString(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

}  // namespace goalrec::serve
