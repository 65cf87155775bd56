// FaultInjector: the deterministic chaos harness.
//
// Substrates declare named injection *sites* ("fileserver.xxx.fetch",
// "schedd.submit", "iochannel.write", "fsbuffer.append") and ask the
// injector for a decision at each pass.  The injector interprets a
// sim::FaultPlan against per-site RNG streams derived from one root stream,
// so a run with the same seed and plan replays the identical fault
// sequence -- and the injector's own audit trail (every fired fault, in
// order, with virtual timestamps) is byte-identical across replays.  That
// trail is the post-mortem "which injected fault did each discipline
// absorb" view; an observer hook forwards fired faults to richer back
// channels such as shell::AuditLog.
//
// The injector only *decides*; the site executes.  A kFail decision is a
// status the site returns, a kStall is extra latency the site sleeps, a
// kReset is a failure after a fraction of the payload, kPartition means
// "behave as a black hole right now", and kCrash maps to whatever
// whole-component failure the site models (the schedd's crash, for
// example).  Keeping execution at the site is what lets one injector span
// the simulated substrates and, via the syscall shim, the POSIX layer.
//
// Like the substrates that consult it, an injector belongs to the thread
// draining its kernel and has no lock (sim/kernel.hpp, "Ownership").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mc/strategy.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace ethergrid::core {

// What a site must do right now.  kNone means proceed normally.
struct FaultDecision {
  enum class Action { kNone, kFail, kStall, kReset, kPartition, kCrash };

  Action action = Action::kNone;
  Status status;        // kFail / kReset / kCrash: what the caller returns
  Duration stall{};     // kStall: extra latency to serve
  double fraction = 0;  // kReset: payload fraction consumed before the reset
};

// One fired fault, as recorded in the audit trail.
struct FaultEvent {
  TimePoint time{};
  std::string site;
  std::string kind;    // fault_kind_name of the firing rule
  std::string detail;  // human-readable parameters ("fraction=0.42", ...)
};

class FaultInjector {
 public:
  // An empty injector never fires; substrates may hold one by value.
  FaultInjector() = default;
  FaultInjector(const sim::FaultPlan& plan, Rng root);

  bool enabled() const { return !plan_.empty(); }

  // Evaluates the plan's rules in order against `site` at virtual time
  // `now`; the first rule that fires wins.  Draws from the site's private
  // RNG stream, so distinct sites never perturb each other's sequences.
  FaultDecision decide(std::string_view site, TimePoint now);

  // Called synchronously for every fired fault (after it is recorded).
  void set_observer(std::function<void(const FaultEvent&)> observer) {
    observer_ = std::move(observer);
  }

  // Model checking: with a strategy installed, probabilistic rules stop
  // drawing from the per-site RNG stream and become an enumerable choice.
  // For each consultation, the eligible alternatives are the matching
  // kError/kStall/kReset rules with 0 < probability < 1, in plan order, up
  // to (but not including) the first rule that would fire deterministically
  // -- a crash past its time, a partition inside its window, or any rule
  // with probability >= 1 -- which becomes the fallback.  choose() index 0
  // means "no probabilistic fault" (the fallback fires if there is one);
  // index k>0 fires the k-th alternative.  kReset fires with the midpoint
  // of its fraction range so the decision stays RNG-free.  Sites with no
  // alternatives never consult the strategy, and the RNG streams are not
  // advanced while one is installed.
  void set_strategy(mc::Strategy* strategy) { strategy_ = strategy; }

  // --- audit trail ---
  std::int64_t fired_total() const { return std::int64_t(events_.size()); }
  std::int64_t fired_at(std::string_view site) const;
  std::vector<FaultEvent> events() const { return events_; }
  // One line per fired fault: "t=<seconds> <site> <kind> <detail>".
  // Byte-identical across replays of the same seed + plan.
  std::string audit_text() const;

  // Renders one audit line in the exact audit_text() format (shared by the
  // sharded merge below).
  static std::string render_audit_line(const FaultEvent& event);

 private:
  Rng& site_rng(std::string_view site);
  void record(TimePoint now, std::string_view site, const sim::FaultSpec& spec,
              std::string detail);
  FaultDecision decide_with_strategy(std::string_view site, TimePoint now);
  FaultDecision fire_rule(std::size_t index, std::string_view site,
                          TimePoint now);

  sim::FaultPlan plan_;
  Rng root_;
  std::map<std::string, Rng, std::less<>> streams_;
  std::vector<bool> crash_fired_;  // one-shot latch per kCrash rule
  std::vector<FaultEvent> events_;
  std::map<std::string, std::int64_t, std::less<>> fired_;
  std::function<void(const FaultEvent&)> observer_;
  mc::Strategy* strategy_ = nullptr;
};

// Canonical merge of several injectors' audit trails (sharded worlds run
// one injector per shard, all built from the same root RNG so per-site
// streams match the unsharded world).  Events are stable-sorted by
// (time, site): per-site relative order -- which is causal, since a site
// fires from exactly one injector -- is preserved, and the interleaving
// between sites becomes partition-independent.  The rendered text uses the
// audit_text() line format, so shards=1 and shards=N produce the same
// bytes for partition-independent worlds.
std::string merged_audit_text(std::vector<FaultEvent> events);

}  // namespace ethergrid::core
