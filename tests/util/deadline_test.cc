#include "util/deadline.h"

#include <thread>

#include <gtest/gtest.h>

namespace goalrec::util {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline deadline;
  EXPECT_TRUE(deadline.is_infinite());
  EXPECT_FALSE(deadline.Expired());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).Expired());
}

TEST(DeadlineTest, FarFutureNotExpired) {
  Deadline deadline = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.Remaining().count(), 0);
}

TEST(DeadlineTest, ExpiresAfterBudgetElapses) {
  Deadline deadline = Deadline::AfterMillis(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.Remaining().count(), 0);
}

TEST(StopTokenTest, DefaultNeverStops) {
  StopToken stop;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(stop.ShouldStop());
  EXPECT_FALSE(stop.StopRequested());
}

TEST(StopTokenTest, StridedPollObservesExpiryOnTheStrideBoundary) {
  StopToken stop(Deadline::AfterMillis(0), /*stride=*/64);
  // Polls between clock samples answer without reading the clock.
  for (int i = 0; i < 63; ++i) EXPECT_FALSE(stop.ShouldStop());
  EXPECT_TRUE(stop.ShouldStop());
}

TEST(StopTokenTest, StopLatches) {
  StopToken stop(Deadline::AfterMillis(0));
  EXPECT_TRUE(stop.StopRequested());
  // Once observed, the stop is remembered: every strided poll is now an
  // immediate true, without waiting for the next clock sample.
  EXPECT_TRUE(stop.ShouldStop());
  EXPECT_TRUE(stop.ShouldStop());
}

TEST(StopTokenTest, ExpiredDeadlineStops) {
  StopToken stop(Deadline::AfterMillis(0), /*stride=*/1);
  EXPECT_TRUE(stop.ShouldStop());
}

TEST(StopTokenTest, StrideZeroIsTreatedAsOne) {
  StopToken stop(Deadline::AfterMillis(0), /*stride=*/0);
  EXPECT_TRUE(stop.ShouldStop());
}

}  // namespace
}  // namespace goalrec::util
