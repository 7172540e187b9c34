#ifndef GOALREC_UTIL_RETRY_H_
#define GOALREC_UTIL_RETRY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "util/status.h"

// Status-aware retry with exponential backoff and decorrelated jitter
// (Brooker, "Exponential Backoff And Jitter"): each delay is drawn uniformly
// from [base, 3 * previous], capped. Decorrelated jitter avoids the
// synchronized retry storms that plain exponential backoff produces when many
// queries hit the same transient fault together. Used by model/library_io
// and data/loaders so transient I/O failures degrade to latency instead of
// errors; the jitter stream is a seeded util::Rng so retry schedules are
// reproducible in tests.

namespace goalrec::util {

/// Upper cap on any single backoff.
inline constexpr int64_t kMaxBackoffMs = 2000;

struct RetryOptions {
  /// Total attempts including the first (1 = no retry).
  int max_attempts = 3;
  /// Lower bound of every backoff draw.
  int64_t initial_backoff_ms = 10;
  /// Seed for the jitter stream; equal seeds give equal schedules.
  uint64_t jitter_seed = 1;
  /// Test seam: invoked instead of actually sleeping when set.
  std::function<void(std::chrono::milliseconds)> sleeper;
};

/// The retry predicate: transient I/O and availability failures.
bool IsRetriableStatus(const Status& status);

/// Stateful decorrelated-jitter schedule. Next() draws the following delay.
class BackoffPolicy {
 public:
  BackoffPolicy(int64_t initial_ms, int64_t cap_ms, uint64_t seed);

  std::chrono::milliseconds Next();

 private:
  int64_t initial_ms_;
  int64_t cap_ms_;
  int64_t previous_ms_;
  uint64_t rng_state_;
};

namespace internal {
inline const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const StatusOr<T>& status_or) {
  return status_or.status();
}
void SleepOrInvoke(const RetryOptions& options, std::chrono::milliseconds d);
// Metrics hooks (defined in retry.cc, reporting into
// obs::MetricRegistry::Default()): one attempt per fn() invocation; an
// outcome per RetryCall, distinguishing calls that recovered after >= 1
// retry from calls that exhausted max_attempts on a retriable error.
void RecordRetryAttempt();
void RecordRetryOutcome(int attempts, bool ok, bool exhausted);
}  // namespace internal

/// Invokes `fn` (returning Status or StatusOr<T>) up to
/// `options.max_attempts` times, sleeping a jittered backoff between
/// attempts. Non-retriable errors and the final attempt's result are
/// returned as-is. `attempts_out`, when given, receives the attempt count.
template <typename Fn>
auto RetryCall(const RetryOptions& options, Fn&& fn, int* attempts_out = nullptr)
    -> decltype(fn()) {
  const int max_attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  BackoffPolicy backoff(options.initial_backoff_ms, kMaxBackoffMs,
                        options.jitter_seed);
  for (int attempt = 1;; ++attempt) {
    auto result = fn();
    internal::RecordRetryAttempt();
    if (attempts_out != nullptr) *attempts_out = attempt;
    const Status& status = internal::StatusOf(result);
    if (status.ok()) {
      internal::RecordRetryOutcome(attempt, /*ok=*/true, /*exhausted=*/false);
      return result;
    }
    bool retriable = IsRetriableStatus(status);
    if (attempt >= max_attempts || !retriable) {
      internal::RecordRetryOutcome(attempt, /*ok=*/false,
                                   /*exhausted=*/retriable);
      return result;
    }
    internal::SleepOrInvoke(options, backoff.Next());
  }
}

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_RETRY_H_
