#include "serve/admission.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/status.h"

// Overload-semantics tests for the admission controller: shed-before-burn,
// queue timeouts, and the AIMD limiter's deterministic trajectory. Limiter
// tests drive Admit/Release sequentially on one thread — the limiter is a
// pure function of the latency sample sequence, so no timing enters the
// assertions. Threaded tests synchronize
// on observable controller state (queue_depth), never on sleeps alone.

namespace goalrec::serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::nanoseconds;

AdmissionOptions FixedOptions(obs::MetricRegistry* registry, int limit) {
  AdmissionOptions options;
  options.initial_limit = limit;
  options.adaptive = false;
  options.metrics = registry;
  return options;
}

int64_t CounterValue(const obs::MetricRegistry& registry,
                     const std::string& name, const obs::LabelSet& labels) {
  const obs::RegistrySnapshot snapshot = registry.Snapshot();
  const obs::MetricSnapshot* metric = snapshot.Find(name, labels);
  return metric == nullptr ? -1 : metric->value;
}

/// Spin until `fn` holds (bounded); returns whether it ever did.
template <typename Fn>
bool SpinUntil(Fn&& fn) {
  for (int i = 0; i < 5000; ++i) {
    if (fn()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

TEST(AdmissionControllerTest, AdmitsUpToLimitThenShedsWhenUnqueued) {
  obs::MetricRegistry registry;
  AdmissionOptions options = FixedOptions(&registry, 2);
  options.max_queue_interactive = 0;  // shed instead of queueing
  AdmissionController controller(options);

  EXPECT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  EXPECT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  util::Status shed = controller.Admit(util::Deadline::Infinite());
  EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.in_flight(), 2);
  EXPECT_EQ(CounterValue(registry, "goalrec_admission_rejected_total",
                         {{"reason", "queue_full"}}),
            1);

  controller.Release(milliseconds(1), /*deadline_met=*/true);
  EXPECT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  controller.Release(milliseconds(1), true);
  controller.Release(milliseconds(1), true);
  EXPECT_EQ(controller.in_flight(), 0);
}

TEST(AdmissionControllerTest, DeadlineAwareRejectionIsImmediate) {
  // Seed the queue-wait EWMA with a real ~50 ms wait, then verify that a
  // query whose whole budget is 5 ms is shed on arrival — in far less time
  // than the predicted wait it would have burned queueing.
  obs::MetricRegistry registry;
  AdmissionOptions options = FixedOptions(&registry, 1);
  AdmissionController controller(options);

  ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  std::thread waiter([&] {
    ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
    controller.Release(milliseconds(1), true);
  });
  ASSERT_TRUE(SpinUntil([&] { return controller.queue_depth() == 1; }));
  std::this_thread::sleep_for(milliseconds(50));
  controller.Release(milliseconds(1), true);  // waiter admitted after ~50 ms
  waiter.join();

  // Occupy the slot again so the next arrival would have to queue.
  ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  const auto start = std::chrono::steady_clock::now();
  util::Status shed = controller.Admit(util::Deadline::AfterMillis(5));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
  // Rejected at arrival, not after burning the 5 ms budget in the queue.
  EXPECT_LT(elapsed, milliseconds(5));
  EXPECT_EQ(CounterValue(registry, "goalrec_admission_rejected_total",
                         {{"reason", "deadline"}}),
            1);
  controller.Release(milliseconds(1), true);
}

TEST(AdmissionControllerTest, QueueTimeoutShedsWithResourceExhausted) {
  obs::MetricRegistry registry;
  AdmissionController controller(FixedOptions(&registry, 1));
  ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  util::Status shed = controller.Admit(util::Deadline::AfterMillis(20));
  EXPECT_EQ(shed.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(CounterValue(registry, "goalrec_admission_rejected_total",
                         {{"reason", "queue_timeout"}}),
            1);
  controller.Release(milliseconds(1), true);
}

/// Drives the limiter with a synthetic latency schedule on one thread and
/// returns the limit after every sample.
std::vector<int> LimitTrajectory(const std::vector<nanoseconds>& samples) {
  obs::MetricRegistry registry;
  AdmissionOptions options;
  options.initial_limit = 4;
  options.min_limit = 1;
  options.max_limit = 8;
  options.adaptive = true;
  options.metrics = &registry;
  AdmissionController controller(options);
  std::vector<int> limits;
  for (nanoseconds sample : samples) {
    EXPECT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
    controller.Release(sample, /*deadline_met=*/true);
    limits.push_back(controller.concurrency_limit());
  }
  return limits;
}

TEST(AdmissionControllerTest, LimiterClimbsUnderHealthyLatency) {
  // 70 samples at the 1 ms baseline: +1 every kIncreaseAfter = 16 samples,
  // from 4 up to the max of 8 (cap reached after 64).
  ASSERT_EQ(kIncreaseAfter, 16);
  std::vector<nanoseconds> healthy(70, milliseconds(1));
  std::vector<int> limits = LimitTrajectory(healthy);
  EXPECT_EQ(limits.front(), 4);
  EXPECT_EQ(limits[14], 4);
  EXPECT_EQ(limits[15], 5);
  EXPECT_EQ(limits[31], 6);
  EXPECT_EQ(limits[47], 7);
  EXPECT_EQ(limits[63], 8);
  EXPECT_EQ(limits.back(), 8);  // clamped at max_limit
}

TEST(AdmissionControllerTest, LimiterBacksOffUnderInflatedLatency) {
  // Establish a 1 ms baseline, then feed 10 ms samples (10x baseline,
  // beyond the kLatencyThreshold = 2x): multiplicative kBackoffRatio = 0.9
  // backoff per sample down to min_limit, then recovery once latency
  // returns to baseline.
  std::vector<nanoseconds> schedule;
  schedule.insert(schedule.end(), 64, milliseconds(1));   // climb to 8
  schedule.insert(schedule.end(), 12, milliseconds(10));  // congestion
  schedule.insert(schedule.end(), 20, milliseconds(1));   // recovery
  std::vector<int> limits = LimitTrajectory(schedule);
  EXPECT_EQ(limits[63], 8);
  // floor(8*.9)=7, 6, 5, 4, 3, 2, 1, then pinned at min_limit.
  EXPECT_EQ(limits[64], 7);
  EXPECT_EQ(limits[70], 1);
  EXPECT_EQ(limits[75], 1);
  // Healthy again: 16 good samples climb one step off the floor.
  EXPECT_EQ(limits[90], 1);
  EXPECT_EQ(limits[91], 2);
  EXPECT_EQ(limits.back(), 2);
}

TEST(AdmissionControllerTest, LimiterTrajectoryIsDeterministic) {
  std::vector<nanoseconds> schedule;
  for (int i = 0; i < 60; ++i) {
    schedule.push_back(milliseconds(i % 7 == 3 ? 12 : 1));
  }
  EXPECT_EQ(LimitTrajectory(schedule), LimitTrajectory(schedule));
}

TEST(AdmissionControllerTest, BaselineResistsCongestionPoisoning) {
  // The asymmetric EWMA must not chase congested samples at full speed:
  // after 16 inflated samples the baseline stays well under the inflated
  // latency, so backoff keeps engaging.
  obs::MetricRegistry registry;
  AdmissionOptions options = FixedOptions(&registry, 4);
  options.adaptive = true;
  AdmissionController controller(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
    controller.Release(milliseconds(1), true);
  }
  EXPECT_NEAR(static_cast<double>(controller.latency_baseline().count()), 1e6,
              1e4);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
    controller.Release(milliseconds(20), true);
  }
  EXPECT_LT(controller.latency_baseline(), nanoseconds(milliseconds(8)));
}

TEST(AdmissionControllerTest, WithheldSamplesLeaveLimiterUntouched) {
  // Release(limiter_sample = false) returns the slot but must not move the
  // baseline or the limit: the engine withholds breaker-gated queries whose
  // skip-to-the-floor latencies would drag the baseline to microseconds.
  obs::MetricRegistry registry;
  AdmissionOptions options = FixedOptions(&registry, 4);
  options.adaptive = true;
  AdmissionController controller(options);
  ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  controller.Release(milliseconds(10), true);
  const nanoseconds baseline = controller.latency_baseline();
  const int limit = controller.concurrency_limit();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
    controller.Release(std::chrono::microseconds(3), true,
                       /*limiter_sample=*/false);
  }
  EXPECT_EQ(controller.latency_baseline(), baseline);
  EXPECT_EQ(controller.concurrency_limit(), limit);
  EXPECT_EQ(controller.in_flight(), 0);
}

TEST(AdmissionControllerTest, SeededBaselineShedsDoomedColdStartQuery) {
  // With initial_baseline set, a query whose budget cannot even cover the
  // service-time estimate is rejected before the first sample arrives —
  // the cold-start burst is shed instead of discovered via deadline
  // misses.
  obs::MetricRegistry registry;
  AdmissionOptions options = FixedOptions(&registry, 1);
  options.initial_baseline = milliseconds(20);
  AdmissionController controller(options);
  EXPECT_EQ(controller.latency_baseline(), nanoseconds(milliseconds(20)));
  // Occupy the only slot so the next arrival takes the queueing path where
  // the deadline-aware check runs.
  ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  util::Status doomed = controller.Admit(util::Deadline::AfterMillis(5));
  EXPECT_EQ(doomed.code(), util::StatusCode::kResourceExhausted);
  controller.Release(milliseconds(1), true);
  // With the slot free again a 5 ms budget is admitted on the fast path:
  // the seeded estimate only sheds queries that would have to queue behind
  // a service they cannot afford.
  EXPECT_TRUE(controller.Admit(util::Deadline::AfterMillis(5)).ok());
  controller.Release(milliseconds(1), true);
  EXPECT_EQ(controller.in_flight(), 0);
}

TEST(AdmissionMetricsTest, PrometheusExportGolden) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "built with GOALREC_OBS_NOOP";
  // Full-document golden over a deterministic admission sequence: one
  // fast-path admit+release (queue wait 0), one shed on a zero-capacity
  // queue. Every admission counter/gauge/histogram family must appear
  // exactly as written here.
  obs::MetricRegistry registry;
  AdmissionOptions options;
  options.initial_limit = 1;
  options.adaptive = false;
  options.max_queue_interactive = 0;
  options.metrics = &registry;
  AdmissionController controller(options);
  ASSERT_TRUE(controller.Admit(util::Deadline::Infinite()).ok());
  EXPECT_EQ(controller.Admit(util::Deadline::Infinite()).code(),
            util::StatusCode::kResourceExhausted);
  controller.Release(milliseconds(1), /*deadline_met=*/true);

  std::string expected =
      "# HELP goalrec_admission_admitted_total Queries granted a slot\n"
      "# TYPE goalrec_admission_admitted_total counter\n"
      "goalrec_admission_admitted_total 1\n"
      "# HELP goalrec_admission_in_flight Queries currently holding a slot\n"
      "# TYPE goalrec_admission_in_flight gauge\n"
      "goalrec_admission_in_flight 0\n"
      "# HELP goalrec_admission_limit Adaptive in-flight concurrency cap\n"
      "# TYPE goalrec_admission_limit gauge\n"
      "goalrec_admission_limit 1\n"
      "# HELP goalrec_admission_limit_changes_total Concurrency-limit adjustments, by direction\n"
      "# TYPE goalrec_admission_limit_changes_total counter\n"
      "goalrec_admission_limit_changes_total{direction=\"backoff\"} 0\n"
      "goalrec_admission_limit_changes_total{direction=\"increase\"} 0\n"
      "# HELP goalrec_admission_queue_depth Waiters queued for a slot\n"
      "# TYPE goalrec_admission_queue_depth gauge\n"
      "goalrec_admission_queue_depth 0\n"
      "# HELP goalrec_admission_queue_wait_us Time admitted queries spent waiting for a slot (microseconds)\n"
      "# TYPE goalrec_admission_queue_wait_us histogram\n";
  // One observation of 0 us falls into every finite bucket of the default
  // 1us..2^24us power-of-two ladder.
  double bound = 1.0;
  for (int i = 0; i < 25; ++i, bound *= 2.0) {
    expected += "goalrec_admission_queue_wait_us_bucket{le=\"" +
                std::to_string(static_cast<int64_t>(bound)) + "\"} 1\n";
  }
  expected +=
      "goalrec_admission_queue_wait_us_bucket{le=\"+Inf\"} 1\n"
      "goalrec_admission_queue_wait_us_sum 0\n"
      "goalrec_admission_queue_wait_us_count 1\n"
      "# HELP goalrec_admission_rejected_total Queries shed at admission, by reason\n"
      "# TYPE goalrec_admission_rejected_total counter\n"
      "goalrec_admission_rejected_total{reason=\"deadline\"} 0\n"
      "goalrec_admission_rejected_total{reason=\"queue_full\"} 1\n"
      "goalrec_admission_rejected_total{reason=\"queue_timeout\"} 0\n"
      "# HELP goalrec_admission_released_total Admitted queries released, by whether they met their deadline\n"
      "# TYPE goalrec_admission_released_total counter\n"
      "goalrec_admission_released_total{deadline=\"met\"} 1\n"
      "goalrec_admission_released_total{deadline=\"missed\"} 0\n";
  EXPECT_EQ(ExportPrometheus(registry), expected);
}

}  // namespace
}  // namespace goalrec::serve
