// Bounded stateless DFS exploration of a simulation's interleaving + fault
// space, in the style of SimGrid's model checker.
//
// The sim kernel is already deterministic: with a fixed seed, the only
// nondeterminism sources are (a) which same-instant wakeup delivers first
// and (b) whether a probabilistic fault rule fires.  Both now flow through
// the mc::Strategy seam (strategy.hpp), so re-executing the scenario from
// scratch while answering choose() from a recorded prefix reproduces any
// interleaving exactly -- the checker never needs to snapshot kernel state,
// it just re-runs the (cheap, virtual-time) simulation once per branch.
//
// The DFS driver:
//  * replays the current prefix, then takes the first unexplored branch at
//    the deepest frontier node (classic stateless backtracking);
//  * prunes with sleep sets when an independence relation is declared --
//    after exploring branch `a` at a node, `a` enters the sleep set of every
//    later sibling subtree and is skipped wherever it stays independent of
//    the branches taken in between (with no relation declared, exploration
//    is exhaustive);
//  * optionally prunes re-visited states by kernel state digest (off by
//    default: a hash collision would silently drop coverage);
//  * enforces depth / execution / transition budgets so unbounded scenarios
//    terminate with `complete == false` instead of hanging.
//
// Invariants are checked through the registry after every transition and at
// the end of each maximal execution; a failure becomes a Violation carrying
// the choice vector, which trace.hpp serializes for `ethergrid_mc --replay`
// and the committed regression fixtures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mc/strategy.hpp"
#include "sim/kernel.hpp"
#include "util/status.hpp"

namespace ethergrid::mc {

// One recorded choice: at a ChoicePoint of `kind` at `site` with `arity`
// alternatives, alternative `chosen` (labelled `label`) was taken.
struct Decision {
  ChoicePoint::Kind kind = ChoicePoint::Kind::kSchedule;
  std::string site;
  std::size_t chosen = 0;
  std::size_t arity = 0;
  std::string label;
};

// What an invariant sees.  `at_end` distinguishes the per-transition calls
// (simulation mid-flight) from the final call after run() returned.
struct CheckContext {
  sim::Kernel& kernel;
  bool at_end = false;
  std::uint64_t transitions = 0;
};

struct Invariant {
  std::string name;
  // Checked after every delivered wakeup as well as at the end of the
  // execution; false means only the end-of-execution call.
  bool every_transition = false;
  std::function<Status(const CheckContext&)> check;
};

class InvariantSet {
 public:
  void add(Invariant invariant) {
    invariants_.push_back(std::move(invariant));
  }
  void add(std::string name, std::function<Status(const CheckContext&)> check,
           bool every_transition = false) {
    invariants_.push_back(
        Invariant{std::move(name), every_transition, std::move(check)});
  }
  const std::vector<Invariant>& all() const { return invariants_; }

 private:
  std::vector<Invariant> invariants_;
};

// Built-in invariants every scenario gets:
//  * live_process_count() == 0 once the run drains (forall sibling-abort
//    must not leak a process);
//  * Kernel::verify_queue_accounting() holds after every transition (the
//    timer-wheel stale/live bookkeeping never drifts).
Invariant no_leaked_processes();
Invariant queue_accounting();

// Scenario-owned world state (substrates, executors, scripts).  Destroyed
// after the kernel is shut down, once per execution.  digest() may fold
// scenario state (logs, file contents) into the state-pruning hash;
// returning 0 (the default) contributes nothing.
class ScenarioWorld {
 public:
  virtual ~ScenarioWorld() = default;
  virtual std::uint64_t digest() const { return 0; }
};

// A checkable scenario: builds a fresh world around a fresh kernel for
// every execution.  build() spawns the scenario's processes (they first run
// when the explorer drives kernel.run()), installs `strategy` on any
// FaultInjector the world owns, and registers extra invariants.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual std::string name() const = 0;
  // Per-scenario kernel option overrides (e.g. the wake-token self-test
  // turns its debug knob on).  `base` carries the explorer-level settings
  // (queue, switch) and must be preserved.
  virtual sim::KernelOptions kernel_options(sim::KernelOptions base) const {
    return base;
  }
  // Labels `a` and `b` (as surfaced in ChoicePoints) commute: executing
  // them in either order reaches the same state.  Drives sleep-set pruning;
  // the default (nothing independent) keeps exploration exhaustive.
  virtual bool independent(const std::string& a, const std::string& b) const {
    (void)a;
    (void)b;
    return false;
  }
  virtual std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel,
                                               Strategy* strategy,
                                               InvariantSet& invariants) = 0;
  // Drives one execution to completion.  The default runs the explorer's
  // kernel; a scenario whose world wraps it in a larger machine -- the
  // cross-shard scenario drives a sim::ShardedKernel whose shard kernels
  // carry the strategy -- overrides this and leaves `kernel` empty.  Must
  // run everything on the calling thread (the DFS replays prefixes, so
  // sharded worlds use threads=1 here).
  virtual void drive(sim::Kernel& kernel, ScenarioWorld& world) {
    (void)world;
    kernel.run();
  }
};

struct ExplorerOptions {
  sim::KernelOptions kernel;  // stacks etc. for every execution
  std::uint64_t seed = 1;
  // Budgets.  A run that would exceed max_depth choice points or
  // max_transitions delivered wakeups is truncated (end invariants are
  // skipped for it -- the state is mid-flight) and the exploration reports
  // complete == false.
  std::size_t max_depth = 256;
  std::uint64_t max_executions = 100000;
  std::uint64_t max_transitions = 100000;
  bool stop_on_first_violation = true;
  // Prune executions that revisit a (kernel digest, world digest) pair.
  // Off by default: pruning is only as sound as the hash.
  bool state_pruning = false;
};

struct ExplorerStats {
  std::uint64_t executions = 0;          // complete or truncated re-runs
  std::uint64_t transitions = 0;         // delivered wakeups, total
  std::uint64_t choice_points = 0;       // strategy consultations, total
  std::uint64_t branches_explored = 0;   // distinct (node, branch) pairs
  std::uint64_t sleep_set_skips = 0;     // branches pruned by sleep sets
  std::uint64_t state_prunes = 0;        // executions cut at a seen state
  std::uint64_t depth_truncations = 0;
  std::uint64_t transition_truncations = 0;
  std::size_t max_depth_seen = 0;
};

struct Violation {
  std::string invariant;
  std::string message;
  std::vector<Decision> trace;  // full choice vector reaching the failure
  std::uint64_t execution = 0;  // which re-run found it (diagnostic)
};

struct ExploreResult {
  ExplorerStats stats;
  std::vector<Violation> violations;
  // True iff the DFS closed the whole (POR-reduced) tree within budget.
  bool complete = false;

  bool ok() const { return violations.empty(); }
};

class Explorer {
 public:
  explicit Explorer(Scenario& scenario, ExplorerOptions options = {});

  // Runs the DFS until the tree closes, a budget trips, or (by default)
  // the first violation.
  ExploreResult explore();

  // Re-executes exactly one run, answering choice points from `trace` (and
  // index 0 past its end).  Decisions are checked against the live labels;
  // a mismatch is reported as an "mc.divergence" violation.
  ExploreResult replay(const std::vector<Decision>& trace);

 private:
  class Driver;
  void run_one(Driver& driver, ExploreResult& result);

  Scenario& scenario_;
  ExplorerOptions options_;
};

}  // namespace ethergrid::mc
