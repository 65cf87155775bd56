// AuditLog: the structured back channel of section 4.
//
// "While executing a script, ftsh keeps a log of varying detail about the
//  program.  Online or post-mortem analysis may determine more detailed
//  reasons for process failure, the exact resources used to execute the
//  program, the frequency of each failure branch, and so forth."
//
// The interpreter records every command execution and every try/forany/
// forall outcome here (via the ObserverSet: AuditLog is an obs::Observer).
// Entries aggregate by construct site, so a command retried 40 times is one
// row with execution and failure counts -- exactly the "frequency of each
// failure branch" view.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "obs/observer.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace ethergrid::shell {

struct AuditEntry {
  enum class Kind { kCommand, kTry, kForany, kForall, kFunction, kFault };

  Kind kind = Kind::kCommand;
  int line = 0;
  std::string label;  // command name / construct summary

  std::int64_t executions = 0;  // times this site ran (attempts, for try)
  std::int64_t failures = 0;
  Duration busy_total{};        // virtual/wall time spent inside
  Duration backoff_total{};     // try only: time spent delaying
  // Failure reasons seen at this site, with counts (capped; see kMaxReasons).
  std::map<std::string, std::int64_t> failure_reasons;

  static constexpr std::size_t kMaxReasons = 16;
};

std::string_view audit_kind_name(AuditEntry::Kind kind);

// An AuditLog is an Observer: add it to the ObserverSet and every finished
// command / try / forany / forall span folds into its aggregate table, and
// every kFault event becomes a kFault row.
class AuditLog : public obs::Observer {
 public:
  // Records one execution of the site; merges into the aggregate entry.
  void record(AuditEntry::Kind kind, int line, const std::string& label,
              const Status& status, Duration elapsed,
              Duration backoff = Duration(0));

  // Observer: span-site aggregation.  Only the span kinds the audit table
  // models (command/try/forany/forall) are recorded; attempts, functions
  // and process spans pass through untouched, matching the legacy shim.
  void on_span_end(const obs::Span& span) override;
  void on_event(const obs::ObsEvent& event) override;

  // Aggregated entries ordered by (line, kind, label).
  std::vector<AuditEntry> entries() const;

  std::int64_t total_executions() const;
  std::int64_t total_failures() const;

  // Human-readable post-mortem table.
  std::string report() const;

  void clear();

 private:
  struct Key {
    AuditEntry::Kind kind;
    int line;
    std::string label;
    bool operator<(const Key& other) const {
      if (line != other.line) return line < other.line;
      if (kind != other.kind) return kind < other.kind;
      return label < other.label;
    }
  };

  std::map<Key, AuditEntry> entries_;
};

// Adapts an AuditLog into a FaultInjector observer: every fired fault
// becomes a kFault row labelled "<site> <kind>", so the post-mortem table
// shows exactly which injected fault each site absorbed, with counts.
// The log must outlive the injector the observer is installed on.
std::function<void(const core::FaultEvent&)> fault_observer(AuditLog& log);

}  // namespace ethergrid::shell
