// The model-checking seam: a decision source consulted wherever the
// simulation would otherwise resolve nondeterminism on its own.
//
// Two call sites exist today:
//
//  * sim::Kernel::pop_runnable -- when two or more distinct processes
//    have wakeups due at the same virtual instant, the kernel normally
//    delivers them in (time, seq) order.  With a Strategy installed it
//    instead surfaces the candidate set (one label per runnable process, in
//    seq order, so index 0 is the default deterministic choice) and delivers
//    whichever one choose() picks.
//  * core::FaultInjector::decide -- probabilistic rules stop drawing from the
//    per-site RNG stream and become enumerable alternatives: index 0 is
//    "no probabilistic fault" (falling through to any deterministic rule
//    that would fire), index k>0 fires the k-th eligible rule.
//
// Both call sites guarantee a deterministic candidate order, which is what
// makes a recorded choice vector replayable: re-executing the simulation and
// answering choose() from the vector reproduces the exact interleaving.
//
// This header is intentionally dependency-free (no sim/ or core/ includes)
// so the kernel and the fault injector can both name the seam without the
// mc library existing at link time.  A null strategy means "behave exactly
// as before"; installing one must not change behavior unless choose()
// deviates from index 0.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ethergrid::mc {

// One nondeterministic branch point surfaced to the strategy.  `labels` is
// the candidate set in the simulation's default deterministic order; the
// strategy returns an index into it.  Labels are stable across replays of
// the same choice prefix (process "name#id" for scheduling, rule
// "kind@pattern#index" for faults), which replay uses as a divergence check.
struct ChoicePoint {
  enum class Kind { kSchedule, kFault };

  Kind kind = Kind::kSchedule;
  // kSchedule: "sched".  kFault: the injection site string being decided.
  std::string_view site;
  const std::vector<std::string>& labels;
};

inline const char* choice_kind_name(ChoicePoint::Kind kind) {
  return kind == ChoicePoint::Kind::kSchedule ? "sched" : "fault";
}

// The decision source.  Implementations must be deterministic functions of
// the decision history (the explorer replays prefixes; a randomized strategy
// would break the divergence check and the counterexample trace).
class Strategy {
 public:
  virtual ~Strategy() = default;

  // Picks one of cp.labels; out-of-range returns are clamped to 0 by the
  // call sites.  Called in the middle of a scheduling or fault decision, on
  // the thread draining the kernel -- must not re-enter the kernel except
  // through const queries (live_process_count, queue_depth,
  // verify_queue_accounting, state_digest).
  virtual std::size_t choose(const ChoicePoint& cp) = 0;

  // Called by the kernel after every delivered wakeup while a strategy is
  // installed (the model checker's "transition").  Returning false stops the
  // drain: the kernel delivers nothing further until the strategy is
  // replaced or removed.  Used for per-transition invariant checks and
  // transition budgets.
  virtual bool on_transition() { return true; }
};

}  // namespace ethergrid::mc
