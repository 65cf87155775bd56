#include "posix/event_loop.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>

#include "posix/syscall_shim.hpp"

namespace ethergrid::posix {

PumpResult pump_fd(int fd, std::string* sink) {
  char buf[4096];
  while (true) {
    // xread retries EINTR internally; the shim also lets tests inject
    // short reads and interrupt storms here.
    ssize_t n = xread(fd, buf, sizeof(buf));
    if (n > 0) {
      sink->append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return PumpResult::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return PumpResult::kOpen;
    return PumpResult::kError;
  }
}

void kill_session(long pid, int signo) {
  if (::kill(static_cast<pid_t>(-pid), signo) == 0 || errno != ESRCH) return;
  ::kill(static_cast<pid_t>(pid), signo);
}

ChildExitWatch::ChildExitWatch(long pid) {
#ifdef SYS_pidfd_open
  // Raw syscall: glibc grew a wrapper only in 2.36.  O_CLOEXEC is implied
  // for pidfds; the fd polls readable once the child becomes a zombie.
  long fd = ::syscall(SYS_pidfd_open, static_cast<pid_t>(pid), 0u);
  fd_ = fd >= 0 ? static_cast<int>(fd) : -1;
#else
  (void)pid;
#endif
}

ChildExitWatch::~ChildExitWatch() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {

int g_sigchld_pipe[2] = {-1, -1};
struct sigaction g_prev_sigchld;

void sigchld_handler(int signo, siginfo_t* info, void* uctx) {
  const int saved_errno = errno;
  const char byte = 0;
  // Best-effort: a full pipe already guarantees pending pollers wake.
  (void)!::write(g_sigchld_pipe[1], &byte, 1);
  // Chain whatever handler the application had installed.
  if (g_prev_sigchld.sa_flags & SA_SIGINFO) {
    if (g_prev_sigchld.sa_sigaction) {
      g_prev_sigchld.sa_sigaction(signo, info, uctx);
    }
  } else if (g_prev_sigchld.sa_handler != SIG_IGN &&
             g_prev_sigchld.sa_handler != SIG_DFL &&
             g_prev_sigchld.sa_handler != nullptr) {
    g_prev_sigchld.sa_handler(signo);
  }
  errno = saved_errno;
}

bool install_sigchld_pipe() {
  if (::pipe2(g_sigchld_pipe, O_CLOEXEC | O_NONBLOCK) != 0) return false;
  struct sigaction sa;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_NOCLDSTOP;
  sa.sa_sigaction = &sigchld_handler;
  if (::sigaction(SIGCHLD, &sa, &g_prev_sigchld) != 0) {
    ::close(g_sigchld_pipe[0]);
    ::close(g_sigchld_pipe[1]);
    g_sigchld_pipe[0] = g_sigchld_pipe[1] = -1;
    return false;
  }
  return true;
}

}  // namespace

int SigchldSelfPipe::fd() {
  static const bool ok = install_sigchld_pipe();
  return ok ? g_sigchld_pipe[0] : -1;
}

void SigchldSelfPipe::drain() {
  if (g_sigchld_pipe[0] < 0) return;
  char buf[64];
  while (::read(g_sigchld_pipe[0], buf, sizeof(buf)) > 0) {
  }
}

}  // namespace ethergrid::posix
