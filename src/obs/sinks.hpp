// Small Observer adapters that recreate the old scattered
// InterpreterOptions channels as composable ObserverSet members:
//
//   StreamObserver  -- replaces stdout_sink / stderr_sink
//   XTraceObserver  -- replaces `bool trace` ("set -x"-style "+ cmd" lines)
//   LoggerObserver  -- replaces `Logger* logger` (bridges on_log and span
//                      failures onto a util Logger)
#pragma once

#include <functional>
#include <string>

#include "obs/observer.hpp"
#include "util/log.hpp"

namespace ethergrid::obs {

// Forwards command output to caller-supplied sinks.  A missing sink drops
// that stream.
class StreamObserver final : public Observer {
 public:
  using Sink = std::function<void(std::string_view)>;

  StreamObserver(Sink out, Sink err)
      : out_(std::move(out)), err_(std::move(err)) {}

  void on_output(StreamKind stream, std::string_view text) override {
    if (stream == StreamKind::kStdout) {
      if (out_) out_(text);
    } else {
      if (err_) err_(text);
    }
  }

 private:
  Sink out_;
  Sink err_;
};

// Writes one "+ <expanded argv>" line per command span, after variable
// expansion -- the ftsh equivalent of `set -x`.
class XTraceObserver final : public Observer {
 public:
  using Sink = std::function<void(std::string_view)>;

  explicit XTraceObserver(Sink sink) : sink_(std::move(sink)) {}

  void on_span_begin(const Span& span) override;

 private:
  Sink sink_;
};

// Bridges the observability channel onto the structured Logger: on_log
// lines pass straight through, rendered only when the logger's threshold
// keeps them; failed command/try spans and fault/crash events become
// records too, so `-l` keeps its pre-redesign diagnostic value.
class LoggerObserver final : public Observer {
 public:
  explicit LoggerObserver(Logger* logger) : logger_(logger) {}

  void on_span_end(const Span& span) override;
  void on_event(const ObsEvent& event) override;
  void on_log(const ObsLogLine& line) override;

 private:
  Logger* logger_;
};

}  // namespace ethergrid::obs
