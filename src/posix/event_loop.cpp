#include "posix/event_loop.hpp"

#include <errno.h>
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

int open_pidfd(long pid) {
#ifdef SYS_pidfd_open
  // Raw syscall: glibc grew a wrapper only in 2.36.  O_CLOEXEC is implied
  // for pidfds; the fd polls readable once the child becomes a zombie.
  const long fd = ::syscall(SYS_pidfd_open, static_cast<pid_t>(pid), 0u);
  return fd >= 0 ? static_cast<int>(fd) : -1;
#else
  (void)pid;
  return -1;
#endif
}

}  // namespace ethergrid::posix
