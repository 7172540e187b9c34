#include "serve/circuit_breaker.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

// State-machine tests for the per-rung circuit breaker. All tests drive the
// breaker through the injectable clock seam, so transitions depend only on
// the recorded outcomes and the simulated time steps — no sleeps, no real
// clock, fully deterministic.

namespace goalrec::serve {
namespace {

using State = CircuitBreaker::State;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Manual clock: tests advance `now_ms` and the breaker sees it.
struct ManualClock {
  int64_t now_ms = 0;
  std::function<steady_clock::time_point()> fn() {
    return [this] { return steady_clock::time_point(milliseconds(now_ms)); };
  }
};

CircuitBreakerOptions BaseOptions(ManualClock* clock) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_cooldown = milliseconds(100);
  options.cooldown_jitter = 0.0;
  options.now = clock->fn();
  return options;
}

TEST(CircuitBreakerTest, StartsClosedAndAllows) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  EXPECT_EQ(breaker.state(), State::kClosed);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, SporadicFailuresBelowThresholdStayClosed) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  // failure_threshold = 3 consecutive; a success in between resets the run.
  for (int round = 0; round < 5; ++round) {
    breaker.RecordFailure();
    breaker.RecordFailure();
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, ConsecutiveFailuresTripOpen) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.transitions_to(State::kOpen), 1);
}

TEST(CircuitBreakerTest, OpenRefusesUntilCooldownThenHalfOpens) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), State::kOpen);

  clock.now_ms = 99;  // one tick before the cooldown elapses
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.state(), State::kOpen);

  clock.now_ms = 100;
  EXPECT_TRUE(breaker.Allow());  // first probe
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_EQ(breaker.transitions_to(State::kHalfOpen), 1);
}

TEST(CircuitBreakerTest, HalfOpenSuccessesClose) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.now_ms = 100;
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  // kHalfOpenSuccesses = 2: one success is not enough.
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_EQ(breaker.transitions_to(State::kClosed), 1);
  // Fully recovered: failure count starts fresh.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensAndCooldownRestarts) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.now_ms = 100;
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // any probe failure re-opens
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.transitions_to(State::kOpen), 2);

  clock.now_ms = 199;  // cooldown restarted at t=100
  EXPECT_FALSE(breaker.Allow());
  clock.now_ms = 200;
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeBudgetIsBounded) {
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.now_ms = 100;
  ASSERT_EQ(kHalfOpenProbes, 3);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  EXPECT_TRUE(breaker.Allow());
  // Budget (3) consumed, no outcome reported yet: further attempts refused.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
}

TEST(CircuitBreakerTest, StuckHalfOpenRecoversAfterAnotherCooldown) {
  // Probes can be consumed but never resolved (e.g. the caller abandoned
  // the attempt). The breaker must not wedge: after another cooldown in
  // half-open it grants a fresh probe round.
  ManualClock clock;
  CircuitBreaker breaker(BaseOptions(&clock));
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.now_ms = 100;
  for (int i = 0; i < kHalfOpenProbes; ++i) EXPECT_TRUE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  clock.now_ms = 200;  // another full cooldown with no probe outcome
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
}

TEST(CircuitBreakerTest, JitterStretchesCooldownDeterministically) {
  // With jitter, the cooldown lies in [100, 200) ms and equal seeds replay
  // the exact same stretch; the unjittered bound still holds on both sides.
  auto probe_time = [](uint64_t seed) {
    ManualClock clock;
    CircuitBreakerOptions options = BaseOptions(&clock);
    options.cooldown_jitter = 1.0;
    options.seed = seed;
    CircuitBreaker breaker(options);
    for (int i = 0; i < 3; ++i) breaker.RecordFailure();
    for (clock.now_ms = 0; clock.now_ms < 400; ++clock.now_ms) {
      if (breaker.Allow()) return clock.now_ms;
    }
    return int64_t{-1};
  };
  const int64_t first = probe_time(7);
  EXPECT_GE(first, 100);
  EXPECT_LT(first, 200);
  EXPECT_EQ(first, probe_time(7));  // same seed, same stretch
  // Different seeds draw different stretches (for these particular seeds).
  EXPECT_NE(probe_time(7), probe_time(8));
}

TEST(CircuitBreakerTest, IdenticalHistoriesProduceIdenticalTrajectories) {
  // Determinism end to end: replaying the same outcome/clock script yields
  // the same state at every step.
  auto run = [] {
    ManualClock clock;
    CircuitBreakerOptions options;
    options.failure_threshold = 2;
    options.open_cooldown = milliseconds(50);
    options.cooldown_jitter = 0.5;
    options.seed = 42;
    options.now = clock.fn();
    CircuitBreaker breaker(options);
    std::vector<int> trajectory;
    for (int step = 0; step < 200; ++step) {
      clock.now_ms = step * 10;
      if (breaker.Allow()) {
        // Sample between the grant and the outcome so half-open probe
        // states are visible in the trajectory.
        trajectory.push_back(static_cast<int>(breaker.state()));
        // Fail every attempt before step 80, succeed afterwards.
        if (step < 80) {
          breaker.RecordFailure();
        } else {
          breaker.RecordSuccess();
        }
      }
      trajectory.push_back(static_cast<int>(breaker.state()));
    }
    return trajectory;
  };
  std::vector<int> a = run();
  EXPECT_EQ(a, run());
  // The script must actually exercise all three states.
  EXPECT_NE(std::count(a.begin(), a.end(), static_cast<int>(State::kOpen)), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), static_cast<int>(State::kHalfOpen)),
            0);
  EXPECT_EQ(a.back(), static_cast<int>(State::kClosed));
}

TEST(CircuitBreakerTest, StateToString) {
  EXPECT_STREQ(CircuitBreakerStateToString(State::kClosed), "closed");
  EXPECT_STREQ(CircuitBreakerStateToString(State::kOpen), "open");
  EXPECT_STREQ(CircuitBreakerStateToString(State::kHalfOpen), "half_open");
}

}  // namespace
}  // namespace goalrec::serve
