// The unified observability layer: one Observer interface feeding every
// back channel.
//
// The paper's central debugging claim (section 4) is that *untyped* failure
// plus a rich back channel is what makes the Ethernet discipline usable.
// Before this layer, that back channel was fragmented: a Logger here, an
// AuditLog there, ad-hoc stdout/stderr sinks, an x-trace flag.  Now every
// producer -- interpreter, executors, grid substrates, fault injector --
// emits through one interface:
//
//  * spans: begin/end pairs with virtual (or wall) timestamps forming the
//    script -> statement -> try-attempt -> command -> process hierarchy;
//  * point events: backoff decisions, carrier-sense probes, collisions,
//    process-table-full deferrals, fault-injection hits, kills;
//  * streams: uncaptured command stdout/stderr;
//  * logs: the free-text diagnostic channel.
//
// Consumers implement Observer: TraceRecorder (Perfetto/Chrome JSON export),
// MetricsRegistry (counters + histograms), shell::AuditLog (per-site
// aggregates), plus small adapters for streams, x-trace, and Logger
// bridging.  An ObserverSet composes any number of them behind one pointer,
// so the no-observer hot path is a single null check.
//
// Emission is allocation-free by design: span names/details are
// string_views into storage the emitter keeps alive from begin_span through
// end_span, and event sites are interned SiteIds (obs/site.hpp).  Observers
// that need the payload beyond the synchronous callback must copy it.
//
// Determinism contract: spans are timestamped by the emitting executor's
// core::Clock and ids are assigned in emission order.  Because the sim
// kernel schedules processes deterministically, a fixed seed yields
// byte-identical trace exports.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/site.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace ethergrid::obs {

// Where in the script -> process hierarchy a span sits.
enum class SpanKind {
  kScript,      // one whole Interpreter::run
  kStatement,   // a compound statement not covered by a specific kind below
  kTry,         // one try/catch construct (all attempts + backoff)
  kTryAttempt,  // one attempt inside a try's retry loop
  kForany,      // sequential alternatives to first success
  kForall,      // parallel alternatives, abort on first failure
  kCommand,     // one external command execution
  kProcess,     // an OS process (POSIX) or simulated forall branch
  kFunction,    // an ftsh function call frame
};

inline constexpr int kSpanKindCount = 9;

std::string_view span_kind_name(SpanKind kind);

// One span.  The emitter fills the descriptive fields, calls
// ObserverSet::begin_span (which assigns `id`), mutates the end-side fields
// as the work concludes, and calls ObserverSet::end_span.  The same struct
// is passed to both callbacks so simple observers can ignore begins.
//
// `name` and `detail` are views: the emitter must keep the referenced
// storage alive and unchanged from begin_span until end_span returns.
struct Span {
  std::uint64_t id = 0;      // assigned by ObserverSet::begin_span
  std::uint64_t parent = 0;  // enclosing span id; 0 = root
  SpanKind kind = SpanKind::kScript;
  std::string_view name;     // command name / construct summary
  std::string_view detail;   // expanded argv, budgets, pid, ...
  int line = 0;              // script line, when known
  std::uint64_t track = 0;   // render lane (forall branch / process id)
  TimePoint start{};
  // End-side fields; meaningful only in on_span_end.
  TimePoint end{};
  Status status;
  int attempts = 0;          // try spans: attempts consumed
  Duration backoff{};        // try spans: total time spent backing off
};

// A point-in-time occurrence on the back channel.  `site` is an interned
// id (resolve with site_name()); `detail` is a view valid only during the
// synchronous callback.
struct ObsEvent {
  enum class Kind {
    kBackoff,       // a backoff delay was chosen; value = delay seconds
    kCarrierSense,  // a carrier-sense probe; value = 1 clear, 0 deferred
    kCollision,     // a collision (ENOSPC, reset, 60 s stall, jam)
    kTableFull,     // process/fd table full at an allocation attempt
    kFault,         // an injected fault fired (chaos harness)
    kKill,          // forcible termination; value = kill latency seconds
    kCrash,         // whole-component failure (the schedd's broadcast jam)
    kOccupancy,     // forall branch occupancy; value = branches in flight
    kFlowShare,     // fluid substrate re-share; value = unit-flow share
                    // as a fraction of capacity
    kReservationGrant,   // reservation admitted; value = granted rate
    kReservationReject,  // reservation refused; value = requested bytes
  };

  Kind kind = Kind::kCollision;
  TimePoint time{};
  std::uint64_t span = 0;    // enclosing span id, when known
  SiteId site = kSiteNone;   // emitting site ("schedd.submit", "forall", ...)
  std::string_view detail;   // human-readable parameters
  double value = 0;
};

inline constexpr int kObsEventKindCount = 11;

std::string_view obs_event_kind_name(ObsEvent::Kind kind);

// Which output stream a chunk of command output belongs to.
enum class StreamKind { kStdout, kStderr };

// A log line on the diagnostic back channel (mirrors util Logger levels so
// observers can bridge without depending on util/log.hpp level semantics).
//
// The message is rendered only when an observer reads it: the emitter
// passes a renderer over its own arguments, valid during the synchronous
// callback, and message() runs it.  A failed command logs on every attempt
// but usually reaches no reader (a trace or metrics sink ignores logs), so
// formatting eagerly would be most of the line's cost.
struct ObsLogLine {
  using Renderer = void (*)(const void* args, std::string* out);

  int level = 0;  // LogLevel numeric value
  TimePoint time{};
  std::string_view component;
  Renderer renderer = nullptr;  // null: an empty message
  const void* args = nullptr;   // the renderer's argument

  std::string message() const {
    std::string out;
    if (renderer) renderer(args, &out);
    return out;
  }
};

// The single-sink interface.  All callbacks default to no-ops so observers
// implement only what they consume.  Callbacks are invoked synchronously on
// the emitting thread.  Both shell executors emit from the one thread that
// drives their kernel; an observer shared across threads (sharded worlds)
// does its own locking.
class Observer {
 public:
  virtual ~Observer() = default;

  virtual void on_span_begin(const Span& span) { (void)span; }
  virtual void on_span_end(const Span& span) { (void)span; }
  virtual void on_event(const ObsEvent& event) { (void)event; }
  virtual void on_output(StreamKind stream, std::string_view text) {
    (void)stream;
    (void)text;
  }
  virtual void on_log(const ObsLogLine& line) { (void)line; }
};

// Fan-out composition: every registered observer sees every emission, in
// registration order.  Also the span-id allocator, so ids are unique per
// set and assigned in (deterministic) emission order.
//
// Emitters hold an `ObserverSet*` that is nullptr when observability is
// off; the hot path is `if (observers_) observers_->...` -- one null check,
// nothing else.
//
// Emission never allocates or takes mu_: members live in a fixed slot
// array published with release stores and walked with an acquire load, and
// span ids come from a relaxed fetch_add.  add()/remove() still serialize
// on mu_; observers added mid-run become visible to subsequent emissions,
// but remove() only unpublishes the pointer -- it must not race in-flight
// emissions that could still be walking the array (Session tears down
// observers only after the run completes).
class ObserverSet final : public Observer {
 public:
  ObserverSet() = default;

  // Registers an observer (not owned; must outlive the set's emissions).
  // Throws std::length_error beyond kMaxObservers members.
  void add(Observer* observer);
  void remove(Observer* observer);

  bool empty() const;
  std::size_t size() const;

  // Assigns span.id (and stamps nothing else), then fans out
  // on_span_begin.  Returns the id for convenience.
  std::uint64_t begin_span(Span& span);
  // Fans out on_span_end; the caller has filled the end-side fields.
  void end_span(const Span& span);

  // --- Observer interface (fan-out) ---
  void on_span_begin(const Span& span) override;
  void on_span_end(const Span& span) override;
  void on_event(const ObsEvent& event) override;
  void on_output(StreamKind stream, std::string_view text) override;
  void on_log(const ObsLogLine& line) override;

  static constexpr std::size_t kMaxObservers = 16;

 private:
  mutable std::mutex mu_;  // serializes add/remove only
  std::array<std::atomic<Observer*>, kMaxObservers> members_{};
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> next_span_id_{0};
};

}  // namespace ethergrid::obs
