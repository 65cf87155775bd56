// SimClock: Clock implementation over a simulated process Context.
//
// with_deadline uses the kernel's deadline stack, so fn is *preemptively*
// unwound exactly at the deadline -- the virtual-time analogue of ftsh
// killing a POSIX session on timeout.
//
// The class is final and its with_deadline has a template overload, so
// run_try over a SimClock (not a Clock&) calls nothing virtual and wraps
// nothing in a std::function: the loop and fn inline into the caller.  The
// virtual override serves Clock& callers and forwards to the template.
#pragma once

#include <functional>

#include "core/clock.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::core {

class SimClock final : public Clock {
 public:
  explicit SimClock(sim::Context& ctx) : ctx_(&ctx) {}

  TimePoint now() override { return ctx_->now(); }

  void sleep(Duration d) override { ctx_->sleep(d); }

  // Runs fn() under a kernel deadline scope; see Clock::with_deadline.
  template <class F>
  Status with_deadline(TimePoint deadline, F&& fn) {
    sim::DeadlineScope scope(*ctx_, deadline);
    try {
      return fn();
    } catch (const sim::DeadlineExceeded& d) {
      if (d.token != scope.token()) throw;  // an enclosing deadline: not ours
      return Status::timeout("deadline expired during attempt");
    }
  }

  // The explicit template argument matters: for a std::function argument
  // plain `with_deadline(deadline, fn)` prefers this non-template override
  // and would call itself forever.
  Status with_deadline(TimePoint deadline,
                       const std::function<Status()>& fn) override {
    return with_deadline<const std::function<Status()>&>(deadline, fn);
  }

  sim::Context& context() { return *ctx_; }

 private:
  sim::Context* ctx_;
};

}  // namespace ethergrid::core
