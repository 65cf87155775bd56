#include "obs/sinks.hpp"

#include "util/strings.hpp"

namespace ethergrid::obs {

void XTraceObserver::on_span_begin(const Span& span) {
  if (span.kind != SpanKind::kCommand || !sink_) return;
  // span.detail carries the expanded argv (see Interpreter::eval_command).
  std::string line;
  line.reserve(span.detail.size() + 3);
  line += "+ ";
  line += span.detail;
  line += '\n';
  sink_(line);
}

// A record the logger's threshold drops is never formatted.
void LoggerObserver::on_span_end(const Span& span) {
  if (!logger_ || span.status.ok()) return;
  switch (span.kind) {
    case SpanKind::kCommand:
      if (!logger_->enabled(LogLevel::kInfo)) return;
      logger_->log(LogLevel::kInfo, span.end, "ftsh",
                   strprintf("command '%s' failed: %s",
                             std::string(span.name).c_str(),
                             span.status.to_string().c_str()));
      break;
    case SpanKind::kTry:
      if (!logger_->enabled(LogLevel::kDebug)) return;
      logger_->log(LogLevel::kDebug, span.end, "ftsh",
                   strprintf("try at line %d: failure after %d attempt(s), "
                             "%s backing off",
                             span.line, span.attempts,
                             format_duration(span.backoff).c_str()));
      break;
    default:
      break;
  }
}

void LoggerObserver::on_event(const ObsEvent& event) {
  if (!logger_) return;
  if (event.kind == ObsEvent::Kind::kFault ||
      event.kind == ObsEvent::Kind::kCrash) {
    std::string message(obs_event_kind_name(event.kind));
    if (!event.detail.empty()) {
      message += ": ";
      message += event.detail;
    }
    logger_->log(LogLevel::kWarn, event.time,
                 std::string(site_name(event.site)), message);
  }
}

void LoggerObserver::on_log(const ObsLogLine& line) {
  const auto level = static_cast<LogLevel>(line.level);
  if (!logger_ || !logger_->enabled(level)) return;
  logger_->log(level, line.time, std::string(line.component),
               line.message());
}

}  // namespace ethergrid::obs
