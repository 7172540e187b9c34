#include "serve/admission.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace goalrec::serve {
namespace {

using Clock = std::chrono::steady_clock;

const char* RejectReasonLabel(AdmissionRejectReason reason) {
  switch (reason) {
    case AdmissionRejectReason::kQueueFull:
      return "queue_full";
    case AdmissionRejectReason::kDeadline:
      return "deadline";
    case AdmissionRejectReason::kQueueTimeout:
      return "queue_timeout";
  }
  return "unknown";
}

/// How long a queued waiter sleeps between grant checks. Short enough to
/// keep deadline expiry responsive; Release() notifies the condition
/// variable, so the poll only bounds the unhappy path.
constexpr std::chrono::milliseconds kWaitSlice{1};

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  GOALREC_CHECK(options_.min_limit >= 1);
  GOALREC_CHECK(options_.max_limit >= options_.min_limit);
  limit_ = std::clamp(options_.initial_limit, options_.min_limit,
                      options_.max_limit);
  if (options_.initial_baseline.count() > 0) {
    baseline_us_ =
        static_cast<double>(options_.initial_baseline.count()) / 1e3;
  }
  obs::MetricRegistry* metrics = options_.metrics != nullptr
                                     ? options_.metrics
                                     : &obs::MetricRegistry::Default();
  limit_gauge_ = metrics->GetGauge("goalrec_admission_limit", {},
                                   "Adaptive in-flight concurrency cap");
  limit_gauge_->Set(limit_);
  in_flight_gauge_ = metrics->GetGauge("goalrec_admission_in_flight", {},
                                       "Queries currently holding a slot");
  limit_increases_ = metrics->GetCounter(
      "goalrec_admission_limit_changes_total", {{"direction", "increase"}},
      "Concurrency-limit adjustments, by direction");
  limit_backoffs_ = metrics->GetCounter(
      "goalrec_admission_limit_changes_total", {{"direction", "backoff"}},
      "Concurrency-limit adjustments, by direction");
  deadline_met_ = metrics->GetCounter(
      "goalrec_admission_released_total", {{"deadline", "met"}},
      "Admitted queries released, by whether they met their deadline");
  deadline_missed_ = metrics->GetCounter(
      "goalrec_admission_released_total", {{"deadline", "missed"}},
      "Admitted queries released, by whether they met their deadline");
  queue_wait_us_ = metrics->GetHistogram(
      "goalrec_admission_queue_wait_us", obs::DefaultLatencyBucketsUs(), {},
      "Time admitted queries spent waiting for a slot (microseconds)");
  depth_gauge_ = metrics->GetGauge("goalrec_admission_queue_depth", {},
                                   "Waiters queued for a slot");
  admitted_ = metrics->GetCounter("goalrec_admission_admitted_total", {},
                                  "Queries granted a slot");
  for (AdmissionRejectReason reason :
       {AdmissionRejectReason::kQueueFull, AdmissionRejectReason::kDeadline,
        AdmissionRejectReason::kQueueTimeout}) {
    rejected_[static_cast<size_t>(reason)] = metrics->GetCounter(
        "goalrec_admission_rejected_total",
        {{"reason", RejectReasonLabel(reason)}},
        "Queries shed at admission, by reason");
  }
}

util::Status AdmissionController::Reject(AdmissionRejectReason reason,
                                         std::string message) {
  rejected_[static_cast<size_t>(reason)]->Increment();
  return util::ResourceExhaustedError(std::move(message));
}

util::Status AdmissionController::Admit(const util::Deadline& deadline) {
  std::unique_lock<std::mutex> lock(mutex_);

  // Fast path: a free slot and nobody queued ahead of us.
  if (waiting_ == 0 && in_flight_ < limit_) {
    ++in_flight_;
    in_flight_gauge_->Set(in_flight_);
    admitted_->Increment();
    queue_wait_us_->Observe(0.0);
    return util::Status::Ok();
  }

  // Shed rather than queue when the queue is full or the budget cannot
  // cover the predicted wait — failing in microseconds here is the whole
  // point; timing out inside a strategy later costs the full deadline.
  if (waiting_ >= options_.max_queue_interactive) {
    return Reject(AdmissionRejectReason::kQueueFull,
                  "admission queue full (depth " + std::to_string(waiting_) +
                      ")");
  }
  if (!deadline.is_infinite()) {
    // The query must fit the predicted queue wait AND the service itself:
    // admitting a query whose budget covers only the wait hands a doomed
    // query to the engine, which burns a slot to produce a deadline miss.
    // baseline_us_ is the limiter's service-time EWMA (0 until the first
    // release, which degrades this to a wait-only check).
    const double predicted_us =
        predicted_wait_us_ * static_cast<double>(waiting_ + 1) +
        baseline_us_;
    const double remaining_us =
        static_cast<double>(deadline.Remaining().count()) / 1e3;
    if (predicted_us > remaining_us) {
      return Reject(AdmissionRejectReason::kDeadline,
                    "predicted queue wait " +
                        std::to_string(predicted_us / 1e3) +
                        " ms exceeds remaining budget " +
                        std::to_string(remaining_us / 1e3) + " ms");
    }
  }

  // Queue until a slot frees or the budget expires.
  ++waiting_;
  depth_gauge_->Set(static_cast<int64_t>(waiting_));
  const Clock::time_point enqueued = Clock::now();
  util::Status verdict;
  while (true) {
    if (!deadline.is_infinite() && deadline.Expired()) {
      verdict = Reject(AdmissionRejectReason::kQueueTimeout,
                       "deadline expired while queued for admission");
      break;
    }
    if (in_flight_ < limit_) break;
    slot_freed_.wait_for(lock, kWaitSlice);
  }
  --waiting_;
  depth_gauge_->Set(static_cast<int64_t>(waiting_));
  if (!verdict.ok()) return verdict;

  ++in_flight_;
  in_flight_gauge_->Set(in_flight_);
  admitted_->Increment();
  const double waited_us =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - enqueued)
                              .count()) /
      1e3;
  queue_wait_us_->Observe(waited_us);
  predicted_wait_us_ += kQueueWaitAlpha * (waited_us - predicted_wait_us_);
  return util::Status::Ok();
}

void AdmissionController::Release(std::chrono::nanoseconds latency,
                                  bool deadline_met, bool limiter_sample) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    GOALREC_CHECK(in_flight_ > 0) << "Release without a matching Admit";
    --in_flight_;
    in_flight_gauge_->Set(in_flight_);
    (deadline_met ? deadline_met_ : deadline_missed_)->Increment();
    if (limiter_sample) UpdateLimitLocked(latency);
  }
  slot_freed_.notify_all();
}

void AdmissionController::UpdateLimitLocked(std::chrono::nanoseconds latency) {
  const double us = static_cast<double>(latency.count()) / 1e3;
  // Asymmetric EWMA baseline: chases lower samples at full alpha (the
  // no-load latency is a floor) and drifts up at alpha/8, so a genuinely
  // slower workload re-anchors eventually but congestion cannot quickly
  // poison the reference.
  if (baseline_us_ <= 0.0) {
    baseline_us_ = us;
  } else if (us < baseline_us_) {
    baseline_us_ += kBaselineAlpha * (us - baseline_us_);
  } else {
    baseline_us_ += (kBaselineAlpha / 8.0) * (us - baseline_us_);
  }
  if (!options_.adaptive) return;
  if (us > kLatencyThreshold * baseline_us_) {
    good_streak_ = 0;
    const int next = std::max(
        options_.min_limit,
        static_cast<int>(std::floor(static_cast<double>(limit_) *
                                    kBackoffRatio)));
    if (next < limit_) {
      limit_ = next;
      limit_gauge_->Set(limit_);
      limit_backoffs_->Increment();
    }
  } else if (++good_streak_ >= kIncreaseAfter) {
    good_streak_ = 0;
    if (limit_ < options_.max_limit) {
      ++limit_;
      limit_gauge_->Set(limit_);
      limit_increases_->Increment();
    }
  }
}

int AdmissionController::concurrency_limit() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return limit_;
}

int AdmissionController::in_flight() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return in_flight_;
}

size_t AdmissionController::queue_depth() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return waiting_;
}

std::chrono::nanoseconds AdmissionController::latency_baseline() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return std::chrono::nanoseconds(static_cast<int64_t>(baseline_us_ * 1e3));
}

}  // namespace goalrec::serve
