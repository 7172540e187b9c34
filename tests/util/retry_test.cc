#include "util/retry.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace goalrec::util {
namespace {

RetryOptions NoSleepOptions(int attempts,
                            std::vector<std::chrono::milliseconds>* slept) {
  RetryOptions options;
  options.max_attempts = attempts;
  options.initial_backoff_ms = 10;
  options.jitter_seed = 42;
  options.sleeper = [slept](std::chrono::milliseconds d) {
    if (slept != nullptr) slept->push_back(d);
  };
  return options;
}

TEST(RetryTest, SuccessOnFirstAttemptDoesNotRetry) {
  int attempts = 0;
  Status result = RetryCall(NoSleepOptions(5, nullptr),
                            [] { return Status::Ok(); }, &attempts);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(attempts, 1);
}

TEST(RetryTest, TransientFailureRetriesUntilSuccess) {
  std::vector<std::chrono::milliseconds> slept;
  int calls = 0;
  int attempts = 0;
  Status result = RetryCall(
      NoSleepOptions(5, &slept),
      [&calls]() -> Status {
        return ++calls < 3 ? IoError("flaky") : Status::Ok();
      },
      &attempts);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(slept.size(), 2u);
}

TEST(RetryTest, NonRetriableErrorReturnsImmediately) {
  std::vector<std::chrono::milliseconds> slept;
  int attempts = 0;
  Status result = RetryCall(
      NoSleepOptions(5, &slept),
      [] { return InvalidArgumentError("malformed"); }, &attempts);
  EXPECT_EQ(result.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(slept.empty());
}

TEST(RetryTest, ExhaustedAttemptsReturnLastError) {
  std::vector<std::chrono::milliseconds> slept;
  int attempts = 0;
  Status result = RetryCall(NoSleepOptions(3, &slept),
                            [] { return UnavailableError("down"); }, &attempts);
  EXPECT_EQ(result.code(), StatusCode::kUnavailable);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(slept.size(), 2u);
}

TEST(RetryTest, StatusOrVariantCarriesValueThrough) {
  int calls = 0;
  StatusOr<std::string> result = RetryCall(
      NoSleepOptions(4, nullptr), [&calls]() -> StatusOr<std::string> {
        if (++calls < 2) return IoError("flaky");
        return std::string("payload");
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "payload");
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, MaxAttemptsBelowOneMeansSingleAttempt) {
  int attempts = 0;
  Status result = RetryCall(NoSleepOptions(0, nullptr),
                            [] { return IoError("flaky"); }, &attempts);
  EXPECT_EQ(result.code(), StatusCode::kIoError);
  EXPECT_EQ(attempts, 1);
}

TEST(BackoffPolicyTest, DelaysStayWithinBounds) {
  BackoffPolicy policy(10, 500, 7);
  int64_t previous = 10;
  for (int i = 0; i < 100; ++i) {
    int64_t delay = policy.Next().count();
    EXPECT_GE(delay, 10);
    EXPECT_LE(delay, 500);
    // Decorrelated jitter: bounded by 3x the previous draw (and the cap).
    EXPECT_LE(delay, std::min<int64_t>(500, previous * 3));
    previous = delay;
  }
}

TEST(BackoffPolicyTest, EqualSeedsGiveEqualSchedules) {
  BackoffPolicy a(10, 2000, 99);
  BackoffPolicy b(10, 2000, 99);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.Next().count(), b.Next().count());
}

TEST(BackoffPolicyTest, DistinctSeedsDiverge) {
  BackoffPolicy a(10, 2000, 1);
  BackoffPolicy b(10, 2000, 2);
  bool diverged = false;
  for (int i = 0; i < 20 && !diverged; ++i) {
    diverged = a.Next().count() != b.Next().count();
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace goalrec::util
