#include "shell/sim_executor.hpp"

#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "core/sim_clock.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace ethergrid::shell {

SimExecutor::ContextBinding::ContextBinding(SimExecutor& executor,
                                            sim::Context& ctx) {
  assert(executor.kernel_->current_context() == &ctx &&
         "ContextBinding installed outside the bound process's body");
  (void)executor;
  (void)ctx;
}

SimExecutor::ContextBinding::~ContextBinding() = default;

SimExecutor::SimExecutor(sim::Kernel& kernel) : kernel_(&kernel) {
  register_builtins();
}

sim::Context& SimExecutor::current() const {
  sim::Context* ctx = kernel_->current_context();
  if (!ctx) {
    throw std::logic_error(
        "SimExecutor used outside a simulated process; executor calls must "
        "run inside a process body on this executor's kernel");
  }
  return *ctx;
}

void SimExecutor::register_command(const std::string& name, Handler handler) {
  commands_[name] = std::move(handler);
}

void SimExecutor::write_file(const std::string& path, std::string contents) {
  files_[path] = std::move(contents);
}

std::optional<std::string> SimExecutor::read_file(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

void SimExecutor::remove_file(const std::string& path) {
  files_.erase(path);
}

bool SimExecutor::file_exists(const std::string& path) {
  return files_.count(path) > 0;
}

TimePoint SimExecutor::now() { return current().now(); }

void SimExecutor::sleep(Duration d) { current().sleep(d); }

Status SimExecutor::with_deadline(TimePoint deadline,
                                  const std::function<Status()>& fn) {
  core::SimClock clock(current());
  return clock.with_deadline(deadline, fn);
}

CommandResult SimExecutor::run(const CommandInvocation& invocation) {
  sim::Context& ctx = current();

  // Call through the map node (std::map nodes do not move) so stateful
  // handlers keep their state across invocations.
  const auto it = commands_.find(invocation.argv[0]);
  if (it == commands_.end()) {
    // "The program could not be loaded and run."
    return CommandResult{
        Status::not_found("unknown command: " + invocation.argv[0]), "", ""};
  }

  // Resolve file stdin into data so handlers see one input form.  The copy
  // is confined to that cold path: the common invocation goes to the
  // handler as-is, so the interpreter's reused scratch invocation crosses
  // this call without touching the allocator.
  const CommandInvocation* inv = &invocation;
  CommandInvocation resolved;
  if (invocation.stdin_file && !invocation.stdin_data) {
    auto contents = read_file(*invocation.stdin_file);
    if (!contents) {
      return CommandResult{
          Status::not_found("no such file: " + *invocation.stdin_file), "",
          ""};
    }
    resolved = invocation;
    resolved.stdin_data = std::move(*contents);
    inv = &resolved;
  }

  CommandResult result = it->second(ctx, *inv);

  std::string out = std::move(result.out);
  if (inv->merge_stderr) {
    out += result.err;
    result.err.clear();
  }
  if (inv->stdout_file) {
    std::string& file = files_[*inv->stdout_file];
    if (inv->stdout_append) {
      file += out;
    } else {
      file = std::move(out);
    }
    result.out.clear();
  } else {
    result.out = std::move(out);
  }
  return result;
}

std::vector<Status> SimExecutor::run_parallel(
    std::vector<std::function<Status()>> branches) {
  return forall(current(), branches);
}

void SimExecutor::register_builtins() {
  register_command("echo", [](sim::Context&, const CommandInvocation& inv) {
    std::vector<std::string> args(inv.argv.begin() + 1, inv.argv.end());
    return CommandResult{Status::success(), join(args, " ") + "\n", ""};
  });

  register_command("true", [](sim::Context&, const CommandInvocation&) {
    return CommandResult{Status::success(), "", ""};
  });

  register_command("false", [](sim::Context&, const CommandInvocation&) {
    return CommandResult{Status::failure("false"), "", ""};
  });

  register_command("fail", [](sim::Context&, const CommandInvocation& inv) {
    std::vector<std::string> args(inv.argv.begin() + 1, inv.argv.end());
    return CommandResult{Status::failure(join(args, " ")), "", ""};
  });

  // sleep <duration>: blocks in virtual time (preempted by try deadlines).
  register_command("sleep", [](sim::Context& ctx,
                               const CommandInvocation& inv) {
    if (inv.argv.size() < 2) {
      return CommandResult{Status::invalid_argument("sleep: missing duration"),
                           "", ""};
    }
    std::vector<std::string> args(inv.argv.begin() + 1, inv.argv.end());
    Duration d{};
    if (!parse_duration(join(args, " "), &d)) {
      return CommandResult{
          Status::invalid_argument("sleep: bad duration: " + join(args, " ")),
          "", ""};
    }
    ctx.sleep(d);
    return CommandResult{Status::success(), "", ""};
  });

  // flaky <percent> [message]: fails that percentage of invocations.
  register_command("flaky", [](sim::Context& ctx,
                               const CommandInvocation& inv) {
    long long percent = 50;
    if (inv.argv.size() >= 2) {
      if (!parse_int(inv.argv[1], &percent) || percent < 0 || percent > 100) {
        return CommandResult{
            Status::invalid_argument("flaky: bad percentage " + inv.argv[1]),
            "", ""};
      }
    }
    if (ctx.rng().chance(double(percent) / 100.0)) {
      return CommandResult{Status::failure("flaky failure"), "", ""};
    }
    return CommandResult{Status::success(), "", ""};
  });

  // cat: stdin (resolved) to stdout.
  register_command("cat", [](sim::Context&, const CommandInvocation& inv) {
    return CommandResult{Status::success(), inv.stdin_data.value_or(""), ""};
  });

  // exists <path>: succeeds iff the file exists (probe-before-use idiom).
  register_command("exists", [this](sim::Context&,
                                    const CommandInvocation& inv) {
    if (inv.argv.size() != 2) {
      return CommandResult{Status::invalid_argument("exists: need a path"),
                           "", ""};
    }
    if (file_exists(inv.argv[1])) {
      return CommandResult{Status::success(), "", ""};
    }
    return CommandResult{Status::not_found(inv.argv[1]), "", ""};
  });

  // append-file <path> <text...>: direct VFS write (test/demo helper).
  register_command("append-file", [this](sim::Context&,
                                         const CommandInvocation& inv) {
    if (inv.argv.size() < 2) {
      return CommandResult{Status::invalid_argument("append-file: need path"),
                           "", ""};
    }
    std::vector<std::string> args(inv.argv.begin() + 2, inv.argv.end());
      files_[inv.argv[1]] += join(args, " ");
    return CommandResult{Status::success(), "", ""};
  });
}

}  // namespace ethergrid::shell
