// PosixExecutor: ftsh over real processes.
//
// Implements the paper's runtime precisely where POSIX allows:
//  * every external command runs in its own session (setsid), so a deadline
//    or abort can terminate the entire process tree with one kill(-pid);
//  * termination is polite first (SIGTERM), forcible after a grace period
//    (SIGKILL) -- "processes are first gently requested to exit";
//  * stdout/stderr are captured through pipes so the interpreter can route
//    them to variables, files, or the terminal without interleaving partial
//    results.
//
// Concurrency is the simulation's: the executor owns a sim::Kernel and
// drives it in wall-clock time (docs/INTERNALS.md, "Wall-clock driver").
// A call from outside the kernel's processes spawns itself as one process
// and drives until every process has finished; the same call from inside
// one runs directly.  So forall branches, try bodies and backoff sleeps are
// fibers: a failing branch kills its siblings, a `try for` deadline is a
// kernel DeadlineScope.  A command whose fiber is killed or expired has its
// session SIGTERMed and handed to a reaper process (TERM, kill_grace, KILL,
// reap); a top-level call returns only after its reapers finish.  A call
// from a second thread while one drives is handed to the driving thread.
//
// As the paper concedes, a process can escape by making its own session;
// this is a resource-management tool, not a security mechanism.
#pragma once

#include <poll.h>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "shell/executor.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::posix {

struct PosixExecutorOptions {
  // Grace between SIGTERM and SIGKILL on timeout/abort.
  Duration kill_grace = sec(5);
  // How often supervision re-checks waitpid when the kernel lacks
  // pidfd_open (Linux before 5.3).  On pidfd kernels supervision is fully
  // event-driven and this value never enters the hot path.
  Duration poll_interval = msec(20);
};

class PosixExecutor final : public shell::Executor {
 public:
  explicit PosixExecutor(PosixExecutorOptions options = {});
  ~PosixExecutor() override;

  // --- Executor interface ---
  shell::CommandResult run(const shell::CommandInvocation& invocation) override;
  std::vector<Status> run_parallel(
      std::vector<std::function<Status()>> branches) override;
  bool file_exists(const std::string& path) override;
  TimePoint now() override;
  void sleep(Duration d) override;
  Status with_deadline(TimePoint deadline,
                       const std::function<Status()>& fn) override;
  bool checkpoint() override;

  // Stops the executor for good: the driver kills every process (so every
  // session is TERMed, then KILLed after kill_grace), run() starts no new
  // session, and checkpoint() stops a top-level script.  Async-signal-safe:
  // the ftsh tool calls it from its SIGTERM handler -- kill our children
  // before dying, per the paper's nested-shell protocol.
  void terminate_all(int signo);

 private:
  struct Child;   // one command session under supervision
  struct FdWait;  // a fiber parked until one of its fds is ready
  struct Call;    // a top-level call, run as one kernel process

  // The calling fiber's context, or nullptr outside this kernel's fibers.
  sim::Context* fiber() const;
  // Calls fn(context) on a fiber: directly from one, otherwise as a new
  // process, driving until every process has finished.  False if
  // terminate_all killed the call before fn returned.
  template <class Fn>
  bool on_fiber(Fn&& fn);
  bool enter(std::function<void()> body);
  bool try_claim();
  void start(Call* call);
  void drive();
  // Parks the calling fiber until one of fds is ready or the wall clock
  // reaches until.
  void await(sim::Context& ctx, pollfd* fds, nfds_t nfds, TimePoint until);

  shell::CommandResult execute(sim::Context& ctx,
                               const shell::CommandInvocation& invocation);
  // Feeds, drains and reaps c until it has exited and its pipes closed (or,
  // once killed, until reaped), enforcing `deadline` and TERM->KILL.
  void supervise(sim::Context& ctx, Child& c, TimePoint deadline,
                 const std::string& stdin_data, std::string* out,
                 std::string* err);
  // The unwinding path: SIGTERM c's session and hand it to a reaper.
  void abandon(std::shared_ptr<Child> child, bool for_deadline);
  // Closes c's pipes and reports the session; returns its status.
  Status finish(Child& c);
  Status terminated_status() const;

  const PosixExecutorOptions options_;
  const std::chrono::steady_clock::time_point start_;
  sim::Kernel kernel_;

  // Shared with other threads and with terminate_all's signal handler.
  std::atomic<pthread_t> driver_{};  // the driving thread; 0 when none
  std::atomic<Call*> inbox_{nullptr};  // calls handed over by other threads
  std::atomic<bool> terminated_{false};
  std::atomic<int> terminate_signal_{0};
  int wake_[2] = {-1, -1};  // pipe: inbox posts and terminate_all

  // Driving thread only.
  std::vector<FdWait*> waits_;
  std::vector<sim::ProcessHandle> roots_;  // one per top-level call
  std::vector<pollfd> pollfds_;  // the driver's scratch
  bool terminate_handled_ = false;
  TimePoint last_yield_{};
};

}  // namespace ethergrid::posix
