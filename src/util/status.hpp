// Status: the untyped-failure result type used throughout ethergrid.
//
// The paper's central philosophical point is that failure *detail* is
// unreliable at integration boundaries, so recovery logic must not branch on
// it.  Status carries a category and message anyway -- for logging and
// post-mortem analysis (the "administrative back channel") -- but the retry
// machinery in core/ only ever inspects ok()/failed().
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ethergrid {

// Broad failure categories.  These exist for diagnostics only; see file
// comment.  kTimeout and kKilled are distinguished because the shell runtime
// itself needs to know whether a deadline fired (to unwind to the owning
// `try`) versus an ordinary command failure.
enum class StatusCode {
  kOk = 0,
  kFailure,            // generic failure (non-zero exit, thrown `failure`, ...)
  kTimeout,            // a deadline expired
  kKilled,             // forcibly terminated (session kill / interrupt)
  kNotFound,           // missing file, unknown command, ...
  kResourceExhausted,  // out of FDs, disk space, queue slots, ...
  kInvalidArgument,    // malformed input; retry will not help
  kIoError,            // read/write/transfer error
  kUnavailable,        // server down, connection refused
};

// Human-readable name of a StatusCode ("OK", "TIMEOUT", ...).
std::string_view status_code_name(StatusCode code);

// A Status's message: a string literal, kept as a pointer to its static
// storage, or a runtime string, kept as an owning copy.  A failure built
// from a literal -- nearly every failure on the simulator's hot paths --
// therefore allocates nothing.  The literal constructor is consteval, so
// only a constant expression binds it: a runtime `const char*` (e.what(),
// strerror) fails to compile and is spelled std::string(...) instead, and a
// stack buffer can never be kept by pointer.
class StatusMessage {
 public:
  StatusMessage() = default;
  consteval StatusMessage(const char* literal)
      : text_(std::in_place_index<0>, literal) {}
  StatusMessage(std::string text)
      : text_(std::in_place_index<1>, std::move(text)) {}

  std::string_view view() const {
    if (const auto* literal = std::get_if<0>(&text_)) return *literal;
    return *std::get_if<1>(&text_);
  }

 private:
  std::variant<std::string_view, std::string> text_;
};

class Status {
 public:
  // Default-constructed Status is success.
  Status() = default;
  Status(StatusCode code, StatusMessage message)
      : code_(code), message_(std::move(message)) {}

  static Status success() { return Status(); }
  static Status failure(StatusMessage msg = {}) {
    return Status(StatusCode::kFailure, std::move(msg));
  }
  static Status timeout(StatusMessage msg = {}) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status killed(StatusMessage msg = {}) {
    return Status(StatusCode::kKilled, std::move(msg));
  }
  static Status not_found(StatusMessage msg = {}) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status resource_exhausted(StatusMessage msg = {}) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status invalid_argument(StatusMessage msg = {}) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status io_error(StatusMessage msg = {}) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status unavailable(StatusMessage msg = {}) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool failed() const { return !ok(); }
  StatusCode code() const { return code_; }
  std::string_view message() const { return message_.view(); }

  // "OK" or "CATEGORY: message".
  std::string to_string() const;

  // Equal codes and equal message text, however each message is held.
  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message() == b.message();
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  StatusMessage message_;
};

}  // namespace ethergrid
