// Clock: the seam that lets the Ethernet machinery run identically in
// virtual time (experiments) and wall-clock time (the real ftsh tool).
// Implementations: core::SimClock over a simulated process, and the two
// shell executors.
#pragma once

#include <functional>

#include "util/status.hpp"
#include "util/time.hpp"

namespace ethergrid::core {

class Clock {
 public:
  virtual ~Clock() = default;

  virtual TimePoint now() = 0;

  // Blocks for d.  Implementations over kernel fibers may throw
  // (sim::Interrupted, sim::DeadlineExceeded from an *enclosing* scope);
  // callers let those propagate.
  virtual void sleep(Duration d) = 0;

  // Runs fn under a hard deadline.  Returns fn's status, or a kTimeout
  // status if *this* deadline cut fn short.  An enclosing deadline firing
  // inside fn still propagates as an exception (it is not ours to absorb).
  //
  // SimClock and both executors enforce the deadline preemptively: fn runs
  // on a kernel fiber under a deadline scope and is forcibly unwound at the
  // deadline, the paper's SIGTERM analogue (in virtual time, or in wall
  // time under PosixExecutor).
  virtual Status with_deadline(TimePoint deadline,
                               const std::function<Status()>& fn) = 0;
};

}  // namespace ethergrid::core
