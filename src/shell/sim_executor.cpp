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

void SimExecutor::set_parallel_policy(const ParallelPolicy& policy) {
  parallel_policy_ = policy;
  if (policy.process_table_slots > 0) {
    process_table_ =
        std::make_unique<sim::Resource>(*kernel_, policy.process_table_slots);
  } else {
    process_table_.reset();
  }
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
  // Interned once per process; emission then carries a plain integer.
  static const obs::SiteId kForallSite = obs::intern_site("forall");
  static const obs::SiteId kTableSite = obs::intern_site("forall.table");
  sim::Context& parent = current();
  const ParallelPolicy policy = parallel_policy_;
  sim::Resource* const table = process_table_.get();
  const std::size_t n = branches.size();
  std::vector<Status> statuses(n, Status::killed("forall branch aborted"));
  std::vector<sim::ProcessHandle> children(n);  // null until spawned
  sim::Event progress(*kernel_);
  std::size_t finished = 0;
  std::size_t active = 0;
  std::size_t next = 0;
  bool any_failed = false;

  // Whatever happens (including an enclosing deadline unwinding the parent
  // mid-wait), no branch may outlive this call.  A killed branch's only
  // cleanup (the process-table slot, RAII in the child body) touches
  // executor-owned state, never this frame.
  struct KillAll {
    sim::Context& parent;
    std::vector<sim::ProcessHandle>& children;
    ~KillAll() {
      for (auto& child : children) {
        if (child && !child->finished()) parent.kill(child, "forall aborted");
      }
    }
  } kill_all{parent, children};

  auto spawn_one = [&](std::size_t i) {
    ++active;
    if (observers_) {
      obs::ObsEvent event;
      event.kind = obs::ObsEvent::Kind::kOccupancy;
      event.time = parent.now();
      event.site = kForallSite;
      event.value = double(active);
      observers_->on_event(event);
    }
    children[i] = parent.spawn(
        parent.process().name() + "/forall" + std::to_string(i),
        [this, &branches, &statuses, &progress, &finished, &active,
         &any_failed, table, i](sim::Context& child_ctx) {
          // The table slot belongs to the executor and must come back even
          // if this branch is killed mid-flight.
          struct SlotReturn {
            sim::Resource* table;
            ~SlotReturn() {
              if (table) table->release();
            }
          } slot{table};
          ContextBinding binding(*this, child_ctx);
          obs::Span span;
          if (observers_) {
            span.kind = obs::SpanKind::kProcess;
            span.name = child_ctx.process().name();
            span.track = i + 1;  // lane 0 is the spawning script
            span.start = child_ctx.now();
            observers_->begin_span(span);
          }
          Status status = branches[i]();  // Interrupted propagates past us
          statuses[i] = std::move(status);
          if (observers_) {
            span.end = child_ctx.now();
            span.status = statuses[i];
            observers_->end_span(span);
          }
          ++finished;
          --active;
          if (statuses[i].failed()) any_failed = true;
          progress.pulse();
        });
  };

  // Ethernet-governed branch creation: respect the per-forall window and
  // carrier-sense the shared process table, backing off (jittered,
  // exponential) while it is busy.  Enclosing try deadlines preempt the
  // waits as usual.
  core::Backoff backoff(policy.backoff, parent.rng());
  while (finished < n && !any_failed) {
    bool table_busy = false;
    while (next < n && !any_failed &&
           (policy.max_concurrent <= 0 ||
            active < std::size_t(policy.max_concurrent))) {
      if (table && !table->try_acquire()) {
        if (observers_) {
          char detail[32];
          std::snprintf(detail, sizeof(detail), "slots=%lld",
                        (long long)policy.process_table_slots);
          obs::ObsEvent event;
          event.kind = obs::ObsEvent::Kind::kTableFull;
          event.time = parent.now();
          event.site = kTableSite;
          event.detail = detail;
          observers_->on_event(event);
        }
        if (policy.on_table_full == ParallelPolicy::OnTableFull::kFail) {
          // The naive baseline: fork() fails, the branch fails, the forall
          // fails.  (The Ethernet alternative backs off below.)
          statuses[next++] = Status::resource_exhausted(
              "cannot create process: table full");
          any_failed = true;
          break;
        }
        table_busy = true;
        break;
      }
      spawn_one(next++);
    }
    if (finished >= n || any_failed) break;
    if (table_busy && active == 0) {
      // Nothing of ours is running to free a slot: pure contention with
      // other scripts.  Back off like any Ethernet client.
      const Duration delay = backoff.next();
      if (observers_) {
        obs::ObsEvent event;
        event.kind = obs::ObsEvent::Kind::kBackoff;
        event.time = parent.now();
        event.site = kTableSite;
        event.value = to_seconds(delay);
        observers_->on_event(event);
      }
      (void)parent.wait_for(progress, delay);
    } else {
      parent.wait(progress);
      backoff.reset();
    }
  }

  if (any_failed) {
    for (auto& child : children) {
      if (child && !child->finished()) {
        parent.kill(child, "forall sibling failed");
      }
    }
  }
  for (auto& child : children) {
    if (child) parent.join(child);
  }
  return statuses;
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
