#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace goalrec::util {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillPoolOrWedgeWait) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&completed] { ++completed; });
  }
  pool.Wait();  // must return despite the throwing task
  EXPECT_EQ(completed.load(), 50);
  EXPECT_EQ(pool.failed_tasks(), 1u);
  Status status = pool.status();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("task boom"), std::string::npos);
}

TEST(ThreadPoolTest, StatusIsOkWhileNoTaskThrows) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Wait();
  EXPECT_TRUE(pool.status().ok());
  EXPECT_EQ(pool.failed_tasks(), 0u);
}

TEST(ThreadPoolTest, RethrowIfFailedRethrowsFirstAndResets) {
  ThreadPool pool(1);
  pool.Submit([] { throw std::runtime_error("first"); });
  pool.Wait();
  pool.Submit([] { throw std::logic_error("second"); });
  pool.Wait();
  EXPECT_EQ(pool.failed_tasks(), 2u);
  EXPECT_THROW(pool.RethrowIfFailed(), std::runtime_error);
  // The failure state is cleared; the pool is usable again.
  EXPECT_TRUE(pool.status().ok());
  EXPECT_EQ(pool.failed_tasks(), 0u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.RethrowIfFailed();  // no-op when everything succeeded
}

TEST(ThreadPoolTest, NonExceptionThrowSurfacesAsInternal) {
  ThreadPool pool(1);
  pool.Submit([] { throw 42; });  // NOLINT: deliberately not std::exception
  pool.Wait();
  EXPECT_EQ(pool.status().code(), StatusCode::kInternal);
  EXPECT_THROW(pool.RethrowIfFailed(), int);
}

// Also under very uneven per-index cost: every 250th index sleeps.
TEST(ParallelForTest, CoversAllIndicesExactlyOnce) {
  for (bool skewed : {false, true}) {
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(1000, [&](size_t i) {
      if (skewed && i % 250 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "skewed " << skewed;
  }
}

TEST(ParallelForTest, ZeroIterations) {
  ParallelFor(0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); },
              /*num_threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelFor(3, [&](size_t i) { ++hits[i]; }, /*num_threads=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Index 0 waits until every other index has run. Contiguous chunks would
// strand indices 1..3 behind it on the same worker; handing indices out
// on demand lets the second worker take them all.
TEST(ParallelForTest, SlowIndexDoesNotHoldBackTheOthers) {
  constexpr size_t kN = 8;
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  bool others_finished_first = false;
  ParallelFor(
      kN,
      [&](size_t i) {
        std::unique_lock<std::mutex> lock(mu);
        if (i == 0) {
          others_finished_first = cv.wait_for(
              lock, std::chrono::seconds(10), [&] { return done == kN - 1; });
        } else {
          ++done;
          cv.notify_all();
        }
      },
      /*num_threads=*/2);
  EXPECT_TRUE(others_finished_first);
}

TEST(ParallelForTest, LargeSumMatchesSerial) {
  const size_t n = 10000;
  std::vector<int64_t> values(n);
  ParallelFor(n, [&](size_t i) { values[i] = static_cast<int64_t>(i) * 2; });
  int64_t total = std::accumulate(values.begin(), values.end(), int64_t{0});
  EXPECT_EQ(total, static_cast<int64_t>(n) * (n - 1));
}

TEST(ParallelForTest, ThrowingBodyRethrowsAfterJoin) {
  std::vector<std::atomic<int>> hits(100);
  std::string message;
  try {
    ParallelFor(100,
                [&hits](size_t i) {
                  ++hits[i];
                  if (i == 7) throw std::runtime_error("body boom");
                },
                /*num_threads=*/4);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "body boom");
  // Every other index still runs, once; only the exception propagates.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ThrowingBodyRethrowsInSingleThreadFallback) {
  EXPECT_THROW(ParallelFor(5,
                           [](size_t i) {
                             if (i == 2) throw std::runtime_error("boom");
                           },
                           /*num_threads=*/1),
               std::runtime_error);
}

}  // namespace
}  // namespace goalrec::util
