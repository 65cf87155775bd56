// run_try: the C++ embedding of the ftsh `try` construct.
//
//   try for 30 minutes ... end          => TryOptions{.time_limit = 30min}
//   try 5 times ... end                 => TryOptions{.attempt_limit = 5}
//   try for 1 hour or 3 times ... end   => both; whichever expires first
//
// The contained operation is attempted repeatedly with exponential backoff
// until it succeeds or the budget is exhausted.  In virtual time a running
// attempt is forcibly unwound at the deadline (Clock::with_deadline); the
// engine never inspects *why* an attempt failed -- untyped failure is the
// paper's point -- but it does count outcomes for the back channel.
//
// run_try is a template over the clock and the attempt, with one definition
// here.  Called with a SimClock, the whole loop, SimClock's inline
// with_deadline and the attempt compile into the caller's frame: no
// std::function and no virtual call per attempt, and a killed client
// unwinds through one frame for the try instead of a chain of thunks.
// Called with a Clock& (the interpreter's Executor, test clocks), the same
// loop goes through the virtual with_deadline, which wraps the loop in a
// std::function.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>

#include "core/backoff.hpp"
#include "core/clock.hpp"
#include "util/rng.hpp"
#include "util/scope_guard.hpp"
#include "util/status.hpp"

namespace ethergrid::core {

// Telemetry for one run_try invocation (the administrative back channel).
struct TryMetrics {
  int attempts = 0;         // times the operation started
  int failures = 0;         // attempts that returned failure
  Duration backoff_total{}; // time spent delaying between attempts
  Duration elapsed{};       // wall/virtual time inside run_try
  bool succeeded = false;
  bool timed_out = false;        // time budget expired
  bool attempts_exhausted = false;

  void merge(const TryMetrics& other);
};

struct TryOptions {
  // "for T": total time budget.  Attempts in flight at expiry are aborted.
  std::optional<Duration> time_limit;
  // "N times": maximum number of attempts.
  std::optional<int> attempt_limit;
  BackoffPolicy backoff = BackoffPolicy::paper_default();
  // Floor on the duration of one attempt+delay cycle.  Real clients pay
  // process startup and syscall costs on every attempt; in virtual time this
  // floor is also what keeps a zero-backoff (Fixed) client retrying an
  // instantly-failing operation from livelocking the simulation at a single
  // instant.  Set to zero only if every attempt provably consumes time.
  Duration min_cycle = msec(1);
  // Optional back-channel accumulator; engine adds to it when non-null.
  TryMetrics* metrics = nullptr;
  // Called with each backoff delay as it is chosen (after min-cycle and
  // deadline clamping, before the sleep).  This is where the observability
  // layer learns the *actual* per-attempt delays -- TryMetrics only carries
  // the total.
  std::function<void(Duration)> on_backoff;

  static TryOptions for_time(Duration d) {
    TryOptions o;
    o.time_limit = d;
    return o;
  }
  static TryOptions times(int n) {
    TryOptions o;
    o.attempt_limit = n;
    return o;
  }
  static TryOptions for_time_or_times(Duration d, int n) {
    TryOptions o;
    o.time_limit = d;
    o.attempt_limit = n;
    return o;
  }
};

// Executes `attempt` under the try discipline.  `attempt` is called as
// `Status(TimePoint deadline)`: it receives the overall deadline
// (TimePoint::max when the try has no time limit) so an attempt can bound
// its own waits.  It must be idempotent-safe: it
// may run many times and may be unwound mid-flight.  It is only ever called
// through a reference, never copied, so it may be move-only.  Returns:
//  - the first successful status;
//  - kTimeout when the time budget expires (including mid-attempt);
//  - the last attempt's failure when the attempt budget is exhausted;
//  - immediately propagates sim::Interrupted / enclosing deadlines.
template <class ClockT, class Fn>
Status run_try(ClockT& clock, Rng& rng, const TryOptions& options,
               Fn&& attempt) {
  const TimePoint start = clock.now();
  const TimePoint deadline = options.time_limit
                                 ? start + *options.time_limit
                                 : TimePoint::max();
  TryMetrics local;
  // Record into the caller's accumulator even if we unwind via an enclosing
  // deadline or a kill.  Declared before `result` so that on the normal path
  // it runs after timed_out is set below.
  const ScopeGuard flush([&] {
    local.elapsed = clock.now() - start;
    if (options.metrics) options.metrics->merge(local);
  });

  Status result = clock.with_deadline(deadline, [&]() -> Status {
    Backoff backoff(options.backoff, rng);
    while (true) {
      // Reached only before the first attempt (a limit of 0 or less): once
      // an attempt fails, the check after it returns first.
      if (options.attempt_limit && local.attempts >= *options.attempt_limit) {
        local.attempts_exhausted = true;
        return Status::failure("try: no attempts made");
      }
      if (clock.now() >= deadline) {
        return Status::timeout("try: time budget expired");
      }
      ++local.attempts;
      const TimePoint cycle_start = clock.now();
      Status last = attempt(deadline);
      if (last.ok()) {
        local.succeeded = true;
        return last;
      }
      ++local.failures;
      if (options.attempt_limit && local.attempts >= *options.attempt_limit) {
        local.attempts_exhausted = true;  // no point delaying after the last
        return last;
      }
      Duration delay = backoff.next();
      const Duration cycle_elapsed = clock.now() - cycle_start;
      if (cycle_elapsed + delay < options.min_cycle) {
        delay = options.min_cycle - cycle_elapsed;
      }
      if (deadline != TimePoint::max()) {
        delay = std::min(delay, deadline - clock.now());
      }
      if (delay > Duration(0)) {
        if (options.on_backoff) options.on_backoff(delay);
        // Record what was actually slept, not what was asked for: a group
        // abort (or an unwinding deadline) can cut the sleep short, and the
        // back channel must not overstate time spent backing off.
        const TimePoint sleep_start = clock.now();
        const ScopeGuard tally(
            [&] { local.backoff_total += clock.now() - sleep_start; });
        clock.sleep(delay);
      }
    }
  });
  if (result.code() == StatusCode::kTimeout) local.timed_out = true;
  return result;
}

}  // namespace ethergrid::core
