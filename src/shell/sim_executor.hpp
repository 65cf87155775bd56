// SimExecutor: runs ftsh scripts inside the simulation.
//
// External commands are registered handlers executing in virtual time via
// the calling process's sim::Context.  The binding is ambient: the kernel
// knows which simulated process is executing at any instant (exactly one
// is), so the executor asks it for the current Context.  A thread_local
// cannot express this, because every process shares the scheduler's OS
// thread.  `forall` branches become child simulated processes through the
// shared governor (Executor::forall), giving real parallelism in virtual
// time with kill-on-failure.
//
// A small in-memory file namespace backs file redirections and `.exists.`.
// Like the objects of its kernel, the executor has no lock: only the thread
// draining that kernel uses it (sim/kernel.hpp, "Ownership").
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "shell/executor.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::shell {

class SimExecutor final : public Executor {
 public:
  // Handler contract: runs in the calling process's virtual time; returns
  // the command's result.  May block via ctx (sleep/wait); enclosing try
  // deadlines preempt it automatically through the kernel deadline stack.
  using Handler =
      std::function<CommandResult(sim::Context&, const CommandInvocation&)>;

  explicit SimExecutor(sim::Kernel& kernel);

  // Registers/overrides a command.  Built-ins provided out of the box:
  // echo, true, false, sleep, fail, flaky, cat, exists, append-file.
  void register_command(const std::string& name, Handler handler);

  // In-memory file namespace (file redirections, `.exists.`, `cat`).
  void write_file(const std::string& path, std::string contents);
  std::optional<std::string> read_file(const std::string& path) const;
  void remove_file(const std::string& path);

  // Declares ctx the executor's current context for this process body.
  // Resolution actually flows through the kernel (see file comment); the
  // binding survives as a scope marker that asserts, at construction, that
  // ctx really is the process the kernel says is running.
  class ContextBinding {
   public:
    ContextBinding(SimExecutor& executor, sim::Context& ctx);
    ~ContextBinding();
    ContextBinding(const ContextBinding&) = delete;
    ContextBinding& operator=(const ContextBinding&) = delete;
  };

  // --- Executor interface ---
  CommandResult run(const CommandInvocation& invocation) override;
  std::vector<Status> run_parallel(
      std::vector<std::function<Status()>> branches) override;
  bool file_exists(const std::string& path) override;
  TimePoint now() override;
  void sleep(Duration d) override;
  Status with_deadline(TimePoint deadline,
                       const std::function<Status()>& fn) override;

  sim::Kernel& kernel() { return *kernel_; }

 private:
  sim::Context& current() const;
  void register_builtins();

  sim::Kernel* kernel_;
  std::map<std::string, Handler> commands_;
  std::map<std::string, std::string> files_;
};

}  // namespace ethergrid::shell
