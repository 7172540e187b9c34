#ifndef GOALREC_UTIL_STATUS_H_
#define GOALREC_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

// Error handling for fallible library operations (file I/O, parsing,
// user-supplied configuration). The library does not use exceptions;
// functions that can fail return Status or StatusOr<T>.

namespace goalrec::util {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kIoError,
  kUnavailable,
  kResourceExhausted,
};

/// Returns a short human-readable name for `code` ("OK", "INVALID_ARGUMENT"...).
const char* StatusCodeToString(StatusCode code);

/// Result of a fallible operation: either OK or an error code plus message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "CODE: message" for diagnostics.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status InternalError(std::string message);
Status IoError(std::string message);
Status UnavailableError(std::string message);
Status ResourceExhaustedError(std::string message);

/// Either a value of type T or an error Status. Mirrors absl::StatusOr.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or an error, so functions can
  /// `return value;` or `return SomeError(...);` directly.
  StatusOr(T value) : value_(std::move(value)) {}        // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    GOALREC_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Requires ok(). Accessing the value of an error StatusOr aborts.
  const T& value() const& {
    GOALREC_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    GOALREC_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    GOALREC_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace goalrec::util

#endif  // GOALREC_UTIL_STATUS_H_
