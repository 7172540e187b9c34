#ifndef GOALREC_SERVE_ADMISSION_H_
#define GOALREC_SERVE_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/status.h"

// Overload protection in front of the serving engine. Under a traffic
// spike an unbounded engine slows every query down together until all of
// them miss their deadlines; the admission controller instead keeps the
// concurrency at the sustainable level and *sheds* the excess, so admitted
// queries keep their latency and rejected ones fail fast with
// kResourceExhausted (cheap for the caller to retry elsewhere or surface).
//
// Three cooperating pieces:
//
//  * A bounded, deadline-aware wait queue. A query whose remaining
//    deadline budget cannot cover the EWMA-predicted queue wait plus the
//    service estimate is rejected on arrival instead of timing out inside
//    a strategy.
//  * An adaptive concurrency limiter (AIMD): the in-flight cap creeps up
//    by one after kIncreaseAfter queries whose latency stayed near the
//    EWMA no-load baseline, and backs off multiplicatively (kBackoffRatio)
//    when latency inflates past kLatencyThreshold × baseline — discovering
//    the sustainable parallelism instead of requiring a hand-tuned count.
//  * Metrics: admitted/rejected counters (by reason), queue depth and
//    in-flight gauges, the live concurrency limit, and a queue wait
//    histogram, all through src/obs/.
//
// The controller is deliberately engine-agnostic: Admit() blocks until a
// slot is granted (or sheds), Release() returns the slot and feeds the
// limiter one latency sample. The per-rung circuit breakers
// (serve/circuit_breaker.h) live in the engine itself, since they gate
// individual rungs, not whole queries.

namespace goalrec::serve {

/// Why an admission was refused (the `reason` metric label).
enum class AdmissionRejectReason {
  kQueueFull,      // the wait queue is at capacity
  kDeadline,       // predicted queue wait exceeds the remaining budget
  kQueueTimeout,   // budget expired while waiting in the queue
};

// The controller's fixed tuning, the same for every deployment.

/// EWMA smoothing factor for the no-load latency baseline.
inline constexpr double kBaselineAlpha = 0.2;
/// Multiplicative backoff fires when a sample exceeds
/// kLatencyThreshold × baseline.
inline constexpr double kLatencyThreshold = 2.0;
/// New limit on backoff: max(min_limit, limit × kBackoffRatio).
inline constexpr double kBackoffRatio = 0.9;
/// Consecutive in-threshold samples before an additive +1 increase.
inline constexpr int kIncreaseAfter = 16;
/// EWMA smoothing factor for the predicted queue wait.
inline constexpr double kQueueWaitAlpha = 0.3;

struct AdmissionOptions {
  /// Starting in-flight cap; the limiter adapts from here.
  int initial_limit = 8;
  int min_limit = 1;
  int max_limit = 128;
  /// Disables adaptation: the limit stays at initial_limit.
  bool adaptive = true;
  /// Capacity of the one wait queue. Zero means a query is admitted
  /// immediately or shed, never queued. The name predates the single
  /// queue; the benchmark driver (perfbench/goalrec_bench.cc) spells it.
  size_t max_queue_interactive = 64;
  /// Operator-provided service-time estimate that seeds the latency
  /// baseline (and therefore the deadline-aware service estimate) before
  /// the first sample arrives. Zero means learn from the first Release().
  /// Seeding matters under a cold-start burst: with no baseline the
  /// controller admits everything and the first round of queries discovers
  /// the overload by missing their deadlines.
  std::chrono::nanoseconds initial_baseline{0};
  /// Registry for the admission metrics; null means
  /// obs::MetricRegistry::Default(). Not owned; must outlive the
  /// controller.
  obs::MetricRegistry* metrics = nullptr;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Admits one query or sheds it. Returns OK once an in-flight slot is
  /// held; every OK return must be paired with exactly one Release().
  /// Sheds with kResourceExhausted when the queue is full, when the
  /// predicted queue wait cannot fit in `deadline`, or when the budget
  /// expires while queued. Thread-safe.
  util::Status Admit(const util::Deadline& deadline);

  /// Returns the slot taken by a successful Admit() and feeds the limiter
  /// one latency sample. Pass service time only (the engine passes ladder
  /// time, not queue wait): the limiter's congestion signal and the
  /// admission service estimate must not count the controller's own
  /// queueing against the workload. `deadline_met` is informational
  /// (goodput counter); the limiter keys off latency alone. Pass
  /// `limiter_sample = false` to return the slot without feeding the
  /// limiter — the engine does this for breaker-gated queries, whose
  /// skip-to-the-floor latencies say nothing about the workload's service
  /// time and would otherwise drag the baseline down to microseconds.
  void Release(std::chrono::nanoseconds latency, bool deadline_met,
               bool limiter_sample = true);

  /// Current adaptive in-flight cap.
  int concurrency_limit() const;
  /// Queries currently holding slots.
  int in_flight() const;
  /// Waiters currently queued.
  size_t queue_depth() const;
  /// The limiter's current no-load latency estimate (0 until the first
  /// sample).
  std::chrono::nanoseconds latency_baseline() const;

 private:
  /// Feeds one latency sample to the AIMD limiter. Caller holds mutex_.
  void UpdateLimitLocked(std::chrono::nanoseconds latency);
  /// Counts the rejection and returns its kResourceExhausted status.
  util::Status Reject(AdmissionRejectReason reason, std::string message);

  AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable slot_freed_;
  int limit_ = 0;
  int in_flight_ = 0;
  int good_streak_ = 0;
  double baseline_us_ = 0.0;
  double predicted_wait_us_ = 0.0;
  size_t waiting_ = 0;  // queued waiters

  obs::Gauge* limit_gauge_ = nullptr;
  obs::Gauge* in_flight_gauge_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rejected_[3] = {nullptr, nullptr, nullptr};
  obs::Counter* limit_increases_ = nullptr;
  obs::Counter* limit_backoffs_ = nullptr;
  obs::Counter* deadline_met_ = nullptr;
  obs::Counter* deadline_missed_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
};

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_ADMISSION_H_
