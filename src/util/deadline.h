#ifndef GOALREC_UTIL_DEADLINE_H_
#define GOALREC_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>
#include <optional>

// Cooperative time budgets for serving. A Deadline is an absolute point on
// the steady clock; a StopToken wraps one into the single cheap predicate
// that the strategy scoring loops poll (the `stop` of
// core::Recommender::RecommendPooled). Nothing here is preemptive: work
// stops only where code polls, which keeps the strategies allocation- and
// lock-free on the hot path.

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

/// The predicate polled inside scoring loops: "should this query stop now?"
/// Wraps a deadline, sampling the steady clock only every `stride` polls (a
/// clock read per candidate would dominate the cheap strategies). Once a
/// stop is observed it latches: every later poll returns true immediately.
///
/// A StopToken is a per-query object; poll it from one thread at a time.
/// Default-constructed tokens never stop, so `const StopToken*` parameters
/// treat nullptr and an infinite token identically.
class StopToken {
 public:
  StopToken() = default;
  explicit StopToken(Deadline deadline, uint32_t stride = 64)
      : deadline_(deadline), stride_(stride == 0 ? 1 : stride) {}

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
    if (deadline_.Expired()) stopped_ = true;
    return stopped_;
  }

  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
  uint32_t stride_ = 64;
  mutable uint32_t polls_ = 0;
  mutable bool stopped_ = false;
};

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_DEADLINE_H_
