// Typed error propagation for the serving stack.
//
// `Status` carries a code plus a human-readable message; `StatusOr<T>`
// carries either a value or a non-OK Status.  Callers test `.ok()` or
// `.code()`, read `.value()` (or `*` / `->`), and propagate failures with
// `HORIZON_RETURN_IF_ERROR`.
#ifndef HORIZON_COMMON_STATUS_H_
#define HORIZON_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/check.h"

namespace horizon {

/// Error taxonomy of the serving stack.  Keep the numeric values stable:
/// they index per-code arrays, and each code's name (StatusCodeName) names
/// the service's error counter `horizon_serving_errors_<name>_total`.
enum class StatusCode : int {
  kOk = 0,
  kNotFound = 1,        ///< the item/file/checkpoint does not exist
  kNotYetLive = 2,      ///< the item exists but its creation time is in the future
  kInvalidArgument = 3, ///< the caller broke a precondition
  kIoError = 4,         ///< the OS refused a read/write/fsync/rename
  kCorruption = 5,      ///< bytes exist but fail CRC / parse validation
  kConfigMismatch = 6,  ///< persisted state disagrees with this process' config
  kAlreadyExists = 7,   ///< uniqueness violated (e.g. duplicate item id)
  kInternal = 8,        ///< invariant violation; always a bug
  kResourceExhausted = 9, ///< a bounded resource is full
};

/// One past the largest code: the length of an array indexed by
/// StatusCode.  StatusTest.CodeNamesCoverExactlyTheCodes fails until it
/// moves with a new code.
inline constexpr int kNumStatusCodes = 10;

/// Stable lower-case name of a code ("ok", "not_found", ...), used in the
/// error counters' names and in Status::ToString.
std::string_view StatusCodeName(StatusCode code);

/// A code plus an optional message.  OK statuses carry no message and are
/// cheap to copy.
///
/// [[nodiscard]]: silently dropping a Status hides failures; call sites
/// that are genuinely best-effort must say so with `(void)` and a comment
/// explaining why ignoring the failure is correct.
class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m) { return {StatusCode::kNotFound, std::move(m)}; }
  static Status NotYetLive(std::string m) { return {StatusCode::kNotYetLive, std::move(m)}; }
  static Status InvalidArgument(std::string m) { return {StatusCode::kInvalidArgument, std::move(m)}; }
  static Status IoError(std::string m) { return {StatusCode::kIoError, std::move(m)}; }
  static Status Corruption(std::string m) { return {StatusCode::kCorruption, std::move(m)}; }
  static Status ConfigMismatch(std::string m) { return {StatusCode::kConfigMismatch, std::move(m)}; }
  static Status AlreadyExists(std::string m) { return {StatusCode::kAlreadyExists, std::move(m)}; }
  static Status Internal(std::string m) { return {StatusCode::kInternal, std::move(m)}; }
  static Status ResourceExhausted(std::string m) { return {StatusCode::kResourceExhausted, std::move(m)}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code_name>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }
  friend bool operator!=(const Status& a, const Status& b) { return !(a == b); }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a T or a non-OK Status.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from a value: `return result;`.
  StatusOr(T value) : value_(std::move(value)) {}
  /// Implicit from a non-OK status: `return Status::NotFound(...);`.
  StatusOr(Status status) : status_(std::move(status)) {
    HORIZON_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  StatusCode code() const { return status_.code(); }
  const Status& status() const { return status_; }

  /// The value; it is a fatal error to call on a non-OK StatusOr.
  const T& value() const& { HORIZON_CHECK(ok()); return *value_; }
  T& value() & { HORIZON_CHECK(ok()); return *value_; }
  T&& value() && { HORIZON_CHECK(ok()); return *std::move(value_); }

  /// Shorthands for value().
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace horizon

/// Propagates a non-OK Status out of the enclosing function.
#define HORIZON_RETURN_IF_ERROR(expr)                  \
  do {                                                 \
    ::horizon::Status horizon_status_ = (expr);        \
    if (!horizon_status_.ok()) return horizon_status_; \
  } while (0)

#endif  // HORIZON_COMMON_STATUS_H_
