#ifndef GOALREC_UTIL_DEADLINE_H_
#define GOALREC_UTIL_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

// Cooperative time budgets and cancellation for serving. A Deadline is an
// absolute point on the steady clock; a CancellationSource/CancellationToken
// pair lets a caller abort a query from another thread; a StopToken combines
// both into the single cheap predicate that the strategy scoring loops poll
// (the `stop` of core::Recommender::RecommendPooled). Nothing here is
// preemptive: work stops only where code polls, which keeps the strategies
// allocation- and lock-free on the hot path.

namespace goalrec::util {

/// An absolute time budget. Default-constructed deadlines are infinite.
class Deadline {
 public:
  Deadline() = default;

  /// A deadline that never expires.
  static Deadline Infinite() { return Deadline(); }

  /// Expires `ms` milliseconds from now. Non-positive values produce an
  /// already-expired deadline (useful for tests and "fail fast" modes).
  static Deadline AfterMillis(int64_t ms);

  /// Expires `duration` from now.
  static Deadline After(std::chrono::nanoseconds duration);

  bool is_infinite() const { return !when_.has_value(); }

  /// True once the deadline has passed. Infinite deadlines never expire.
  bool Expired() const;

  /// Time left before expiry; zero when expired. Requires !is_infinite().
  std::chrono::nanoseconds Remaining() const;

 private:
  std::optional<std::chrono::steady_clock::time_point> when_;
};

/// Read side of a cancellation flag. Copyable and cheap; default-constructed
/// tokens are never cancelled. Safe to poll from any thread.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool Cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side of a cancellation flag. The source outliving its tokens is
/// not required: tokens share ownership of the flag.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }

  /// Signals every token handed out. Idempotent; thread-safe.
  void Cancel() { flag_->store(true, std::memory_order_relaxed); }

  bool Cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The predicate polled inside scoring loops: "should this query stop now?"
/// Combines a deadline and a cancellation token, sampling the steady clock
/// only every `stride` polls (a clock read per candidate would dominate the
/// cheap strategies). Once a stop is observed it latches: every later poll
/// returns true immediately.
///
/// A StopToken is a per-query object; poll it from one thread at a time.
/// Default-constructed tokens never stop, so `const StopToken*` parameters
/// treat nullptr and an infinite token identically.
class StopToken {
 public:
  StopToken() = default;
  StopToken(Deadline deadline, CancellationToken cancel, uint32_t stride = 64)
      : deadline_(deadline), cancel_(cancel),
        stride_(stride == 0 ? 1 : stride) {}

  /// Strided poll for hot loops.
  bool ShouldStop() const {
    if (stopped_) return true;
    if (++polls_ % stride_ != 0) return false;
    return StopRequested();
  }

  /// Unstrided check (always consults the clock). Used by the serving
  /// engine between rungs and by callers inspecting a returned list's
  /// integrity: a list produced while StopRequested() is a best-effort
  /// partial answer.
  bool StopRequested() const {
    if (stopped_) return true;
    if (cancel_.Cancelled() || deadline_.Expired()) stopped_ = true;
    return stopped_;
  }

  bool Cancelled() const { return cancel_.Cancelled(); }
  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
  CancellationToken cancel_;
  uint32_t stride_ = 64;
  mutable uint32_t polls_ = 0;
  mutable bool stopped_ = false;
};

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_DEADLINE_H_
