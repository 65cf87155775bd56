// Executor: where ftsh meets the world.
//
// The interpreter is executor-agnostic.  An Executor supplies:
//  * external command execution (run),
//  * parallel branch execution for `forall` (run_parallel),
//  * the file_exists probe backing the `.exists.` operator,
//  * and -- because it knows which world the script lives in -- the Clock
//    (virtual or wall) that the retry machinery uses.
//
// Implementations: shell::SimExecutor (commands are registered handlers
// running in simulated time) and posix::PosixExecutor (real processes in
// their own POSIX sessions).  Both run a script's forall branches, try
// bodies and backoff sleeps as processes of a sim::Kernel -- virtual time
// for the one, wall-clock time for the other -- so kills, deadlines and the
// forall governor below are one implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backoff.hpp"
#include "core/clock.hpp"
#include "obs/observer.hpp"
#include "sim/kernel.hpp"
#include "sim/resource.hpp"
#include "util/status.hpp"

namespace ethergrid::shell {

// Governor for forall branch creation -- the algorithm the paper defers:
// "The number of alternatives that a forall may execute simultaneously is
//  of course limited by any number of local resources limits such as
//  memory, disk space, or fixed kernel tables.  Thus, the creation of
//  processes must be governed by an Ethernet-like algorithm similar to
//  that of try."
//
// Two independent limits compose:
//  * max_concurrent: a per-forall window (at most this many branches in
//    flight; the next starts as one finishes);
//  * process_table_slots: a finite executor-wide "kernel process table"
//    shared by every forall of every script using this executor.  When the
//    table is full, branch creation carrier-senses it and backs off with
//    the usual exponential/jittered delays instead of failing.
struct ParallelPolicy {
  // What branch creation does when the process table is full.
  enum class OnTableFull {
    kBackoff,  // Ethernet: carrier-sense + jittered exponential delay
    kFail,     // naive: fork() returns EAGAIN and the branch (and therefore
               // the whole forall) fails -- the un-governed baseline
  };

  int max_concurrent = 0;             // 0 = unlimited
  std::int64_t process_table_slots = 0;  // 0 = unlimited
  OnTableFull on_table_full = OnTableFull::kBackoff;
  core::BackoffPolicy backoff = core::BackoffPolicy::paper_default();
};


struct CommandInvocation {
  std::vector<std::string> argv;  // expanded; argv[0] is the command name
  // Input: at most one of these is set.
  std::optional<std::string> stdin_data;  // -< var (already resolved)
  std::optional<std::string> stdin_file;  // <  file
  // Output routing.
  std::optional<std::string> stdout_file;  // > / >> / >& file
  bool stdout_append = false;
  bool capture_stdout = false;  // -> var: return out instead of printing
  bool merge_stderr = false;    // >& / ->&
  // Earliest enclosing try deadline.  Inside a try, the kernel's deadline
  // stack already preempts the command; PosixExecutor also enforces this
  // field itself, so a direct caller with no enclosing try gets its command
  // killed (TERM, then KILL after the grace) and a kTimeout result.
  TimePoint deadline = TimePoint::max();
  // Observability: the interpreter's command span, so executor-emitted
  // process spans and kill events attach under it.  0 = no enclosing span.
  std::uint64_t parent_span = 0;
};

struct CommandResult {
  Status status;
  std::string out;  // uncaptured, unredirected stdout (printed by the shell)
  std::string err;  // stderr (printed to the diagnostic stream)
};

class Executor : public core::Clock {
 public:
  virtual CommandResult run(const CommandInvocation& invocation) = 0;

  // Runs the branch thunks concurrently; returns each branch's status in
  // order.  If any branch fails, the remaining branches are killed (under
  // POSIX their sessions are TERMed, then KILLed) -- the forall contract.
  virtual std::vector<Status> run_parallel(
      std::vector<std::function<Status()>> branches) = 0;

  // The interpreter's between-statement preemption point; true when the
  // script must stop.  PosixExecutor yields a fiber to its wall-clock
  // driver here, so a kill or deadline reaches command-free loops.  In
  // virtual time nothing is due: time passes only in waits.
  virtual bool checkpoint() { return false; }

  virtual bool file_exists(const std::string& path) = 0;

  // Installs the forall branch-creation governor (see ParallelPolicy).
  // Call before running scripts; replaces any previous policy.
  void set_parallel_policy(const ParallelPolicy& policy);

  // Observability sink for executor-level emissions: process spans, kill
  // latency, process-table carrier-sense/backoff events, forall occupancy.
  // nullptr (the default) turns all of it off; the hot path is one null
  // check.  Not owned; must outlive the executor's use of it.
  void set_observers(obs::ObserverSet* observers) { observers_ = observers; }
  obs::ObserverSet* observers() const { return observers_; }

 protected:
  // The forall governor of both executors: runs each branch as a child
  // process of `parent` under the ParallelPolicy, and kills the branches
  // still running when one fails or when `parent` unwinds.
  std::vector<Status> forall(sim::Context& parent,
                             std::vector<std::function<Status()>>& branches);

  obs::ObserverSet* observers_ = nullptr;

 private:
  ParallelPolicy parallel_policy_;
  // Built on the first forall that needs it, on that forall's kernel.
  std::unique_ptr<sim::Resource> process_table_;
};

}  // namespace ethergrid::shell
