// Status: lightweight error propagation for Thunderbolt, in the style used
// by RocksDB and Apache Arrow. Functions that can fail return a Status (or a
// Result<T>, see result.h) instead of throwing exceptions.
#ifndef THUNDERBOLT_COMMON_STATUS_H_
#define THUNDERBOLT_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace thunderbolt {

/// Error categories used across the code base. Keep this list small; the
/// message carries the detail.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAborted = 3,          // Transaction aborted by concurrency control.
  kCorruption = 4,       // Failed integrity check (bad signature, bad block).
  kOutOfRange = 5,
  kInternal = 6,
};

/// Returns a stable human-readable name ("OK", "Aborted", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A Status holds a code and, for errors, a message. The OK status carries
/// no allocation and is cheap to copy.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Propagates errors to the caller: `THUNDERBOLT_RETURN_NOT_OK(DoThing());`
#define THUNDERBOLT_RETURN_NOT_OK(expr)           \
  do {                                            \
    ::thunderbolt::Status _st = (expr);           \
    if (!_st.ok()) return _st;                    \
  } while (0)

}  // namespace thunderbolt

#endif  // THUNDERBOLT_COMMON_STATUS_H_
