#include "shell/audit.hpp"

#include "util/strings.hpp"

namespace ethergrid::shell {

std::string_view audit_kind_name(AuditEntry::Kind kind) {
  switch (kind) {
    case AuditEntry::Kind::kCommand:
      return "command";
    case AuditEntry::Kind::kTry:
      return "try";
    case AuditEntry::Kind::kForany:
      return "forany";
    case AuditEntry::Kind::kForall:
      return "forall";
    case AuditEntry::Kind::kFunction:
      return "function";
    case AuditEntry::Kind::kFault:
      return "fault";
  }
  return "?";
}

void AuditLog::record(AuditEntry::Kind kind, int line,
                      const std::string& label, const Status& status,
                      Duration elapsed, Duration backoff) {
  AuditEntry& entry = entries_[Key{kind, line, label}];
  entry.kind = kind;
  entry.line = line;
  entry.label = label;
  ++entry.executions;
  entry.busy_total += elapsed;
  entry.backoff_total += backoff;
  if (status.failed()) {
    ++entry.failures;
    std::string reason(status_code_name(status.code()));
    if (entry.failure_reasons.size() < AuditEntry::kMaxReasons ||
        entry.failure_reasons.count(reason)) {
      ++entry.failure_reasons[reason];
    }
  }
}

void AuditLog::on_span_end(const obs::Span& span) {
  AuditEntry::Kind kind;
  switch (span.kind) {
    case obs::SpanKind::kCommand:
      kind = AuditEntry::Kind::kCommand;
      break;
    case obs::SpanKind::kTry:
      kind = AuditEntry::Kind::kTry;
      break;
    case obs::SpanKind::kForany:
      kind = AuditEntry::Kind::kForany;
      break;
    case obs::SpanKind::kForall:
      kind = AuditEntry::Kind::kForall;
      break;
    default:
      return;  // scripts, attempts, functions, processes: not table rows
  }
  record(kind, span.line, std::string(span.name), span.status,
         span.end - span.start, span.backoff);
}

void AuditLog::on_event(const obs::ObsEvent& event) {
  if (event.kind != obs::ObsEvent::Kind::kFault) return;
  record(AuditEntry::Kind::kFault, 0, std::string(obs::site_name(event.site)),
         Status::failure(std::string(event.detail)), Duration(0));
}

std::vector<AuditEntry> AuditLog::entries() const {
  std::vector<AuditEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  return out;
}

std::int64_t AuditLog::total_executions() const {
  std::int64_t total = 0;
  for (const auto& [key, entry] : entries_) total += entry.executions;
  return total;
}

std::int64_t AuditLog::total_failures() const {
  std::int64_t total = 0;
  for (const auto& [key, entry] : entries_) total += entry.failures;
  return total;
}

std::string AuditLog::report() const {
  std::string out =
      "line  kind      runs  fail  busy        backoff     what\n";
  for (const AuditEntry& e : entries()) {
    out += strprintf("%-5d %-9s %-5lld %-5lld %-11s %-11s %s",
                     e.line, std::string(audit_kind_name(e.kind)).c_str(),
                     (long long)e.executions, (long long)e.failures,
                     format_duration(e.busy_total).c_str(),
                     format_duration(e.backoff_total).c_str(),
                     e.label.c_str());
    if (!e.failure_reasons.empty()) {
      out += "  [";
      bool first = true;
      for (const auto& [reason, count] : e.failure_reasons) {
        if (!first) out += ", ";
        first = false;
        out += strprintf("%s x%lld", reason.c_str(), (long long)count);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

void AuditLog::clear() {
  entries_.clear();
}

std::function<void(const core::FaultEvent&)> fault_observer(AuditLog& log) {
  return [&log](const core::FaultEvent& event) {
    log.record(AuditEntry::Kind::kFault, 0, event.site + " " + event.kind,
               Status::failure(event.detail), Duration(0));
  };
}

}  // namespace ethergrid::shell
