#include "posix/posix_executor.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "core/sim_clock.hpp"
#include "posix/event_loop.hpp"
#include "posix/syscall_shim.hpp"
#include "util/scope_guard.hpp"
#include "util/strings.hpp"

namespace ethergrid::posix {

namespace {

// How often a script fiber that runs no command yields to the driver at
// the interpreter's checkpoint: the latency with which a kill or deadline
// reaches a command-free loop.
constexpr Duration kYieldInterval = msec(1);

// Writing to a dead child's stdin must be an EPIPE error, not process death.
void ignore_sigpipe_once() {
  static const bool done = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &sa, nullptr);
    return true;
  }();
  (void)done;
}

void close_fd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

// All parent-side pipe and redirection fds are O_CLOEXEC: a sibling forall
// branch forking while this command runs must not capture them, or a
// fast-exiting command's stdout never reaches EOF until the unrelated
// sibling exits.
int open_cloexec(const char* path, int flags, mode_t mode = 0) {
  int fd;
  do {
    fd = ::open(path, flags | O_CLOEXEC, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

bool make_pipe(int* read_end, int* write_end) {
  int fds[2];
  if (xpipe2(fds, O_CLOEXEC) != 0) return false;
  *read_end = fds[0];
  *write_end = fds[1];
  return true;
}

void signal_byte(int fd) {
  const char byte = 0;
  (void)!::write(fd, &byte, 1);
}

// Fibers get the stack a thread gets by default (RLIMIT_STACK, 8 MiB on
// most systems): what a forall branch had when branches were threads, so
// the nesting depth a script reaches did not shrink.
sim::KernelOptions kernel_options() {
  sim::KernelOptions options;
  pthread_attr_t attr;
  if (::pthread_attr_init(&attr) == 0) {
    (void)::pthread_attr_getstacksize(&attr, &options.fiber_stack_bytes);
    ::pthread_attr_destroy(&attr);
  }
  return options;
}

}  // namespace

struct PosixExecutor::Child {
  ~Child() {
    for (int* fd : {&stdin_write, &stdout_read, &stderr_read, &pidfd}) {
      close_fd(fd);
    }
  }

  long pid = -1;
  int pidfd = -1;  // -1: no pidfd; poll waitpid every poll_interval
  // The parent's pipe ends, nonblocking.
  int stdin_write = -1;
  int stdout_read = -1;
  int stderr_read = -1;
  bool exited = false;
  int wait_status = 0;
  bool term_sent = false;
  bool kill_sent = false;
  bool for_deadline = false;  // why the kill began (else: an abort)
  TimePoint term_time{};
  // The process span ends with the session, possibly in a reaper, so the
  // Child owns the storage its views point into.
  std::string name;
  char detail[32] = {};
  obs::Span span;
};

struct PosixExecutor::FdWait {
  pollfd* fds;
  nfds_t nfds;
  TimePoint until;
  sim::Event* ready;  // set by the driver: an fd is ready or `until` passed
};

struct PosixExecutor::Call {
  std::function<void()> body;
  std::exception_ptr error;
  bool completed = false;  // body returned
  // Handed over from another thread: the caller sleeps on done_fd, which
  // is written once `done` is set; `done` orders the results for it.
  int done_fd = -1;
  std::atomic<bool> done{false};
  Call* next = nullptr;
};

PosixExecutor::PosixExecutor(PosixExecutorOptions options)
    : options_(options),
      start_(std::chrono::steady_clock::now()),
      kernel_(1, kernel_options()) {
  ignore_sigpipe_once();
  // Not the shim's pipe2: this pipe is the executor's, not a command's.
  (void)::pipe2(wake_, O_CLOEXEC | O_NONBLOCK);
}

PosixExecutor::~PosixExecutor() {
  close_fd(&wake_[0]);
  close_fd(&wake_[1]);
}

TimePoint PosixExecutor::now() {
  return kEpoch + std::chrono::duration_cast<Duration>(
                      std::chrono::steady_clock::now() - start_);
}

bool PosixExecutor::file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

void PosixExecutor::terminate_all(int signo) {
  terminate_signal_.store(signo);
  terminated_.store(true);
  signal_byte(wake_[1]);
}

Status PosixExecutor::terminated_status() const {
  return Status::killed(
      strprintf("ftsh terminated by signal %d", terminate_signal_.load()));
}

// ------------------------------------------------------------- the driver

sim::Context* PosixExecutor::fiber() const {
  // pthread_t is an integer on Linux; 0 is never a live thread's id.
  return driver_.load() == ::pthread_self() ? kernel_.current_context()
                                            : nullptr;
}

bool PosixExecutor::try_claim() {
  pthread_t none{};
  return driver_.compare_exchange_strong(none, ::pthread_self());
}

bool PosixExecutor::enter(std::function<void()> body) {
  Call call;
  call.body = std::move(body);
  if (try_claim()) {
    start(&call);
    drive();
  } else {
    // Another thread drives: hand the call over.  Should that thread
    // release the kernel before taking the call, drive it here; a release
    // re-checks the inbox, so the call cannot be stranded.
    call.done_fd = ::eventfd(0, EFD_CLOEXEC);
    call.next = inbox_.load();
    while (!inbox_.compare_exchange_weak(call.next, &call)) {
    }
    signal_byte(wake_[1]);
    if (try_claim()) drive();
    if (call.done_fd >= 0) {
      std::uint64_t count;
      while (::read(call.done_fd, &count, sizeof(count)) < 0 &&
             errno == EINTR) {
      }
      ::close(call.done_fd);
    }
    while (!call.done.load()) ::sched_yield();  // no eventfd (out of fds)
  }
  if (call.error) std::rethrow_exception(call.error);
  return call.completed;
}

void PosixExecutor::start(Call* call) {
  roots_.erase(std::remove_if(roots_.begin(), roots_.end(),
                              [](const sim::ProcessHandle& p) {
                                return p->finished();
                              }),
               roots_.end());
  roots_.push_back(kernel_.spawn("ftsh", [call](sim::Context&) {
    const ScopeGuard signal_done([call] {
      const int fd = call->done_fd;
      call->done.store(true);  // the caller may free `call` from here on
      if (fd >= 0) {  // the caller closes it only after reading
        const std::uint64_t one = 1;
        (void)!::write(fd, &one, sizeof(one));
      }
    });
    try {
      call->body();
      call->completed = true;
    } catch (const sim::Interrupted&) {
      throw;
    } catch (...) {
      call->error = std::current_exception();
    }
  }));
  if (terminated_.load()) kernel_.kill(*roots_.back(), "ftsh terminated");
}

void PosixExecutor::drive() {
  while (true) {
    for (Call* call = inbox_.exchange(nullptr); call != nullptr;) {
      Call* next = call->next;
      start(call);
      call = next;
    }
    // Killing the roots kills everything: a killed forall kills its
    // branches, and a killed command SIGTERMs its session.
    if (terminated_.load() && !terminate_handled_) {
      terminate_handled_ = true;
      for (const sim::ProcessHandle& root : roots_) {
        kernel_.kill(*root, "ftsh terminated");
      }
    }
    kernel_.run_until(now());
    if (kernel_.live_process_count() == 0) {
      driver_.store(pthread_t{});
      // A call posted since the inbox was emptied is ours to run, unless
      // another thread has claimed the kernel in between.
      if (inbox_.load() == nullptr || !try_claim()) return;
      continue;
    }

    // Sleep until an fd a fiber waits for is ready, a wait's `until`
    // passes, the wake pipe fires, or the kernel's next timer is due.
    pollfds_.assign(1, pollfd{wake_[0], POLLIN, 0});
    TimePoint next = kernel_.next_live_event_time();
    for (const FdWait* wait : waits_) {
      pollfds_.insert(pollfds_.end(), wait->fds, wait->fds + wait->nfds);
      next = std::min(next, wait->until);
    }
    const auto left = std::max(next - now(), Duration(0)).count();
    const timespec timeout{left / 1'000'000, left % 1'000'000 * 1000};
    (void)::ppoll(pollfds_.data(), pollfds_.size(),
                  next == TimePoint::max() ? nullptr : &timeout, nullptr);
    char buf[64];
    while (pollfds_[0].revents != 0 && ::read(wake_[0], buf, sizeof(buf)) > 0) {
    }
    const TimePoint t = now();
    const pollfd* ready = pollfds_.data() + 1;
    for (const FdWait* wait : waits_) {
      bool fire = t >= wait->until;
      for (nfds_t i = 0; i < wait->nfds; ++i) fire |= ready++->revents != 0;
      // Between drains, the driving thread may set Events.
      if (fire) wait->ready->set();
    }
  }
}

void PosixExecutor::await(sim::Context& ctx, pollfd* fds, nfds_t nfds,
                          TimePoint until) {
  // The driver times `until` itself: a kernel timer per wait would leave a
  // stale wheel entry behind every command that finishes early.
  sim::Event ready(kernel_);
  FdWait wait{fds, nfds, until, &ready};
  waits_.push_back(&wait);
  const ScopeGuard unregister([&] {
    waits_.erase(std::find(waits_.begin(), waits_.end(), &wait));
  });
  ctx.wait(ready);
}

// ------------------------------------------------------- the entry points

template <class Fn>
bool PosixExecutor::on_fiber(Fn&& fn) {
  if (sim::Context* ctx = fiber()) {
    fn(*ctx);
    return true;
  }
  return enter([&] { fn(*fiber()); });
}

void PosixExecutor::sleep(Duration d) {
  const TimePoint until = now() + d;
  (void)on_fiber([&](sim::Context& ctx) { ctx.sleep(until - ctx.now()); });
}

Status PosixExecutor::with_deadline(TimePoint deadline,
                                    const std::function<Status()>& fn) {
  Status status;
  if (!on_fiber([&](sim::Context& ctx) {
        status = core::SimClock(ctx).with_deadline(deadline, fn);
      })) {
    status = terminated_status();
  }
  return status;
}

std::vector<Status> PosixExecutor::run_parallel(
    std::vector<std::function<Status()>> branches) {
  std::vector<Status> statuses;
  if (!on_fiber([&](sim::Context& ctx) { statuses = forall(ctx, branches); })) {
    statuses.assign(branches.size(), terminated_status());
  }
  return statuses;
}

shell::CommandResult PosixExecutor::run(
    const shell::CommandInvocation& invocation) {
  shell::CommandResult result;
  if (!on_fiber(
          [&](sim::Context& ctx) { result = execute(ctx, invocation); })) {
    result.status = terminated_status();
  }
  return result;
}

bool PosixExecutor::checkpoint() {
  sim::Context* ctx = fiber();
  if (ctx == nullptr) return terminated_.load();
  const TimePoint t = now();
  if (t - last_yield_ >= kYieldInterval) {
    last_yield_ = t;
    // Resumes once the driver's clock reaches t; a kill or an expired
    // deadline throws here instead.
    ctx->sleep(t - ctx->now());
  }
  return false;
}

// ------------------------------------------------------------ supervision

shell::CommandResult PosixExecutor::execute(
    sim::Context& ctx, const shell::CommandInvocation& invocation) {
  using shell::CommandResult;
  if (terminated_.load()) return CommandResult{terminated_status(), "", ""};

  // ---- set up I/O endpoints in the parent (better error reporting) ----
  // The parent's ends go straight into the Child, which closes them on
  // every path; the child's ends close after the fork or on failure.
  auto child = std::make_shared<Child>();
  Child& c = *child;
  int child_in = -1, child_out = -1, child_err = -1;
  auto close_child_ends = [&] {
    for (int* fd : {&child_in, &child_out, &child_err}) close_fd(fd);
  };
  const ScopeGuard on_failure(close_child_ends);
  auto fail = [](const std::string& what) {
    return CommandResult{
        Status::io_error(what + ": " + std::strerror(errno)), "", ""};
  };

  if (invocation.stdin_data) {
    if (!make_pipe(&child_in, &c.stdin_write)) return fail("pipe");
  } else {
    const char* path = invocation.stdin_file ? invocation.stdin_file->c_str()
                                             : "/dev/null";
    child_in = open_cloexec(path, O_RDONLY);
    if (child_in < 0) return fail(std::string("cannot open ") + path);
  }
  if (invocation.stdout_file) {
    const int flags = O_WRONLY | O_CREAT |
                      (invocation.stdout_append ? O_APPEND : O_TRUNC);
    child_out = open_cloexec(invocation.stdout_file->c_str(), flags, 0644);
    if (child_out < 0) return fail("cannot open " + *invocation.stdout_file);
  } else if (!make_pipe(&c.stdout_read, &child_out)) {
    return fail("pipe");
  }
  if (!invocation.merge_stderr && !make_pipe(&c.stderr_read, &child_err)) {
    return fail("pipe");
  }

  // ---- fork/exec in a fresh session ----
  std::vector<char*> argv;
  argv.reserve(invocation.argv.size() + 1);
  for (const std::string& arg : invocation.argv) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = xfork();
  if (pid < 0) return fail("fork");
  if (pid == 0) {
    // Child: own session so kill(-pid) reaches every descendant.  The
    // dup2'd standard fds lose O_CLOEXEC; every other endpoint closes
    // itself at exec.  dup2(fd, fd) is a no-op that would *keep* the flag
    // (possible when the parent's own stdio was closed), so clear it
    // explicitly in that case.
    auto install_stdio = [](int from, int to) {
      if (from == to) {
        const int flags = ::fcntl(from, F_GETFD, 0);
        if (flags >= 0) ::fcntl(from, F_SETFD, flags & ~FD_CLOEXEC);
      } else {
        // xdup2 reads a function pointer and loops on EINTR: both safe in
        // the fork/exec window.
        xdup2(from, to);
      }
    };
    ::setsid();
    install_stdio(child_in, 0);
    install_stdio(child_out, 1);
    install_stdio(invocation.merge_stderr ? child_out : child_err, 2);
    ::execvp(argv[0], argv.data());
    _exit(127);  // shell convention: command not runnable
  }
  close_child_ends();
  c.pid = pid;
  c.pidfd = open_pidfd(pid);
  c.name = invocation.argv[0];
  for (int fd : {c.stdin_write, c.stdout_read, c.stderr_read}) {
    if (fd >= 0) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  }
  if (observers_) {
    std::snprintf(c.detail, sizeof(c.detail), "pid %ld", (long)pid);
    c.span.kind = obs::SpanKind::kProcess;
    c.span.parent = invocation.parent_span;
    c.span.name = c.name;
    c.span.detail = c.detail;
    c.span.start = now();
    observers_->begin_span(c.span);
  }

  static const std::string kNoInput;
  std::string out, err;
  try {
    supervise(ctx, c, invocation.deadline,
              invocation.stdin_data ? *invocation.stdin_data : kNoInput, &out,
              &err);
  } catch (const sim::DeadlineExceeded&) {
    abandon(std::move(child), /*for_deadline=*/true);
    throw;
  } catch (...) {
    abandon(std::move(child), /*for_deadline=*/false);
    throw;
  }
  Status status = finish(c);
  return CommandResult{std::move(status), std::move(out), std::move(err)};
}

void PosixExecutor::supervise(sim::Context& ctx, Child& c, TimePoint deadline,
                              const std::string& stdin_data, std::string* out,
                              std::string* err) {
  std::size_t stdin_sent = 0;
  if (stdin_data.empty()) close_fd(&c.stdin_write);

  // Drains one pipe; EOF and hard errors both retire the fd, so a dead
  // descriptor can never pin the loop open.
  auto drain = [](int* fd, std::string* sink) {
    if (*fd < 0) return;
    if (pump_fd(*fd, sink) != PumpResult::kOpen) close_fd(fd);
  };

  while (true) {
    // Feed stdin.
    if (c.stdin_write >= 0) {
      while (stdin_sent < stdin_data.size()) {
        ssize_t n = xwrite(c.stdin_write, stdin_data.data() + stdin_sent,
                           stdin_data.size() - stdin_sent);
        if (n > 0) {
          stdin_sent += std::size_t(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          stdin_sent = stdin_data.size();  // EPIPE etc: stop feeding
        }
      }
      if (stdin_sent >= stdin_data.size()) close_fd(&c.stdin_write);
    }

    // Drain output.
    drain(&c.stdout_read, out);
    drain(&c.stderr_read, err);

    // Reap?
    if (!c.exited && xwaitpid(pid_t(c.pid), &c.wait_status, WNOHANG) == c.pid) {
      c.exited = true;
    }
    if (c.exited && c.stdout_read < 0 && c.stderr_read < 0) return;
    if (c.exited && c.term_sent) {
      // Killed: do not wait for grandchildren holding the pipes open.
      if (c.stdout_read >= 0) pump_fd(c.stdout_read, out);
      if (c.stderr_read >= 0) pump_fd(c.stderr_read, err);
      return;
    }

    // Deadline enforcement on the whole session, then escalation.
    if (!c.exited && !c.term_sent && now() >= deadline) {
      c.for_deadline = true;
      kill_session(c.pid, SIGTERM);
      c.term_sent = true;
      c.term_time = now();
    } else if (!c.exited && c.term_sent && !c.kill_sent &&
               now() - c.term_time >= options_.kill_grace) {
      kill_session(c.pid, SIGKILL);
      c.kill_sent = true;
    }

    // Wait for the next event: pipe readiness, child exit, or the next
    // enforcement edge (deadline, then TERM->KILL escalation).  A kill or
    // an enclosing deadline throws out of the wait.
    pollfd fds[4];
    nfds_t nfds = 0;
    if (c.stdin_write >= 0) fds[nfds++] = {c.stdin_write, POLLOUT, 0};
    if (c.stdout_read >= 0) fds[nfds++] = {c.stdout_read, POLLIN, 0};
    if (c.stderr_read >= 0) fds[nfds++] = {c.stderr_read, POLLIN, 0};
    TimePoint until = TimePoint::max();
    if (!c.exited) {
      if (c.pidfd >= 0) {
        fds[nfds++] = {c.pidfd, POLLIN, 0};
      } else {
        until = now() + options_.poll_interval;  // no pidfd: re-check waitpid
      }
      if (!c.term_sent) {
        until = std::min(until, deadline);
      } else if (!c.kill_sent) {
        until = std::min(until, c.term_time + options_.kill_grace);
      }
    }
    await(ctx, fds, nfds, until);
  }
}

void PosixExecutor::abandon(std::shared_ptr<Child> child, bool for_deadline) {
  Child& c = *child;
  close_fd(&c.stdin_write);
  if (!c.term_sent) {
    c.for_deadline = for_deadline;
    // Once the child is reaped its pid may be recycled: group kill only.
    if (c.exited) {
      ::kill(-pid_t(c.pid), SIGTERM);
    } else {
      kill_session(c.pid, SIGTERM);
    }
    c.term_sent = true;
    c.term_time = now();
  }
  // Spawning does not park, so it is safe while the exception is in flight.
  kernel_.spawn("reaper", [this, child](sim::Context& ctx) {
    static const std::string kNoInput;
    std::string discard;
    supervise(ctx, *child, TimePoint::max(), kNoInput, &discard, &discard);
    (void)finish(*child);
  });
}

Status PosixExecutor::finish(Child& c) {
  for (int* fd : {&c.stdin_write, &c.stdout_read, &c.stderr_read}) {
    close_fd(fd);
  }
  // Make sure nothing of the session survives a kill.  Group kill only: the
  // child is already reaped here, so a pid fallback could hit a recycled
  // pid; the session id itself is never recycled while members remain.
  if (c.term_sent) ::kill(-pid_t(c.pid), SIGKILL);

  const char* name = c.name.c_str();
  Status status;
  if (c.term_sent && c.for_deadline) {
    status = Status::timeout(strprintf("command '%s' exceeded its deadline",
                                       name));
  } else if (c.term_sent) {
    status = Status::killed("forall branch aborted");
  } else if (WIFEXITED(c.wait_status)) {
    const int code = WEXITSTATUS(c.wait_status);
    if (code == 0) {
      status = Status::success();
    } else if (code == 127) {
      status = Status::not_found(strprintf("cannot execute %s", name));
    } else {
      status = Status::failure(strprintf("%s: exit status %d", name, code));
    }
  } else if (WIFSIGNALED(c.wait_status)) {
    status = Status::failure(strprintf("%s: killed by signal %d", name,
                                       WTERMSIG(c.wait_status)));
  } else {
    status = Status::failure("unknown wait status");
  }

  if (observers_) {
    const TimePoint reaped = now();
    if (c.term_sent) {
      // Kill latency: forcible-termination request to actual reap.
      static const obs::SiteId kAbortSite = obs::intern_site("posix.abort");
      static const obs::SiteId kDeadlineSite =
          obs::intern_site("posix.deadline");
      obs::ObsEvent event;
      event.kind = obs::ObsEvent::Kind::kKill;
      event.time = reaped;
      event.span = c.span.id;
      event.site = c.for_deadline ? kDeadlineSite : kAbortSite;
      event.detail = c.name;
      event.value = to_seconds(reaped - c.term_time);
      observers_->on_event(event);
    }
    c.span.end = reaped;
    c.span.status = status;
    observers_->end_span(c.span);
  }
  return status;
}

}  // namespace ethergrid::posix
