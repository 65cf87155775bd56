// Cleanup that runs when a scope exits, including by exception.
//
// A killed or timed-out simulated process unwinds its stack with an
// exception.  `catch (...) { cleanup; throw; }` stops that unwind and
// raises it again, which makes the unwinder search the whole stack a second
// time; a guard's destructor runs the same cleanup from a landing pad and
// lets the first raise carry on.
#pragma once

#include <utility>

namespace ethergrid {

// Runs `cleanup` when destroyed unless dismiss() ran first.  The cleanup
// may run during unwinding, so it must not throw.
template <typename F>
class ScopeGuard {
 public:
  explicit ScopeGuard(F cleanup) : cleanup_(std::move(cleanup)) {}
  ~ScopeGuard() {
    if (armed_) cleanup_();
  }

  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

  void dismiss() { armed_ = false; }

 private:
  F cleanup_;
  bool armed_ = true;
};

}  // namespace ethergrid
