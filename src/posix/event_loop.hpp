// Event-driven child supervision primitives for the POSIX executor.
//
// The paper's cancellation protocol ("processes are first gently requested
// to exit, then forcibly terminated") only delivers its latency promise if
// the supervising shell *notices* exits, EOFs, and aborts immediately.
// These pieces replace the old fixed-interval polling loop:
//
//  * pump_fd       -- drain a nonblocking pipe, distinguishing EOF from
//                     hard errors (the latter must also end supervision);
//  * kill_session  -- session kill with a pre-setsid fallback so an early
//                     kill is never silently lost to ESRCH;
//  * open_pidfd    -- a pollable fd that becomes readable when the child
//                     exits (pidfd, Linux 5.3 and later).
#pragma once

#include <string>

namespace ethergrid::posix {

// Result of draining a nonblocking read end.
enum class PumpResult {
  kOpen,   // drained everything currently available; stream still open
  kEof,    // orderly end of stream
  kError,  // hard read error (EBADF, EIO, ...): the stream is dead
};

// Reads everything currently available from fd into *sink.  Never blocks
// (fd must be O_NONBLOCK).  EINTR is retried; EAGAIN means kOpen; any other
// error is kError -- callers must close the fd and stop supervising it, or
// a dead descriptor would keep the supervision loop alive forever.
PumpResult pump_fd(int fd, std::string* sink);

// Signals the child's session (kill(-pid)).  A freshly forked child only
// becomes its own process group once it reaches setsid(); until then the
// group kill fails with ESRCH, so fall back to signalling the pid directly
// rather than losing the kill.  (The fallback only fires in that pre-setsid
// window, when the child cannot yet have been reaped, so there is no
// pid-reuse hazard.)
void kill_session(long pid, int signo);

// Pollable child-exit notification: a pidfd (readable once the child is a
// zombie; the caller closes it), or -1 when the kernel lacks pidfd_open --
// then the caller re-checks waitpid on a bounded timer instead.
int open_pidfd(long pid);

}  // namespace ethergrid::posix
