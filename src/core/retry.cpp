#include "core/retry.hpp"

#include <algorithm>

#include "util/scope_guard.hpp"

namespace ethergrid::core {

void TryMetrics::merge(const TryMetrics& other) {
  attempts += other.attempts;
  failures += other.failures;
  backoff_total += other.backoff_total;
  elapsed += other.elapsed;
  succeeded = succeeded || other.succeeded;
  timed_out = timed_out || other.timed_out;
  attempts_exhausted = attempts_exhausted || other.attempts_exhausted;
}

Status run_try(Clock& clock, Rng& rng, const TryOptions& options,
               const AttemptFn& attempt) {
  const TimePoint start = clock.now();
  const TimePoint deadline = options.time_limit
                                 ? start + *options.time_limit
                                 : TimePoint::max();
  TryMetrics local;
  // Record into the caller's accumulator even if we unwind via an enclosing
  // deadline or a kill.
  struct Flush {
    const TryOptions& options;
    TryMetrics& local;
    Clock& clock;
    TimePoint start;
    ~Flush() {
      local.elapsed = clock.now() - start;
      if (options.metrics) options.metrics->merge(local);
    }
  } flush{options, local, clock, start};

  Status result = clock.with_deadline(deadline, [&]() -> Status {
    Backoff backoff(options.backoff, rng);
    Status last = Status::failure("try: no attempts made");
    while (true) {
      if (options.attempt_limit && local.attempts >= *options.attempt_limit) {
        local.attempts_exhausted = true;
        return last;
      }
      if (clock.now() >= deadline) {
        return Status::timeout("try: time budget expired");
      }
      ++local.attempts;
      const TimePoint cycle_start = clock.now();
      last = attempt(deadline);
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
