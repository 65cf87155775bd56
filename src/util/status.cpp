#include "util/status.hpp"

namespace ethergrid {

std::string_view status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kFailure:
      return "FAILURE";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kKilled:
      return "KILLED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string out(status_code_name(code_));
  const std::string_view message = message_.view();
  if (!message.empty()) {
    out += ": ";
    out += message;
  }
  return out;
}

}  // namespace ethergrid
