// run_try semantics over virtual time.
#include "core/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "both_clocks.hpp"
#include "core/sim_clock.hpp"
#include "sim/kernel.hpp"
#include "util/scope_guard.hpp"

namespace ethergrid::core {
namespace {

using sim::Context;
using sim::Kernel;

using harness::ClockPath;
using harness::run_on_both_clocks;

// What one run of a scenario leaves behind; compared across clock paths.
struct Outcome {
  Status status;     // the scenario's result, or the process's if killed
  TryMetrics outer;  // the scenario's try
  TryMetrics inner;  // a nested try's, when the scenario has one
  TimePoint end{};   // when the worker returned or finished unwinding
};

// Runs scenario(ctx, clock, rng, outcome) -> Status in a worker process
// through `path`.  With `kill_at`, a second process kills the worker then.
template <class Scenario>
Outcome run_scenario(ClockPath path, const Scenario& scenario,
                     std::optional<Duration> kill_at = std::nullopt) {
  SCOPED_TRACE(harness::path_name(path));
  Outcome out;
  Kernel kernel(1);
  sim::ProcessHandle worker = kernel.spawn("worker", [&](Context& ctx) {
    const ScopeGuard stamp([&] { out.end = ctx.now(); });
    SimClock clock(ctx);
    Rng rng = ctx.rng();
    if (path == ClockPath::kSimClock) {
      out.status = scenario(ctx, clock, rng, out);
    } else {
      Clock& base = clock;
      out.status = scenario(ctx, base, rng, out);
    }
  });
  if (kill_at) {
    kernel.spawn("killer", [&](Context& ctx) {
      ctx.sleep(*kill_at);
      ctx.kill(worker);
    });
  }
  kernel.run();
  if (kill_at) out.status = worker->result();
  return out;
}

void expect_same(const TryMetrics& a, const TryMetrics& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.backoff_total, b.backoff_total);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.succeeded, b.succeeded);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.attempts_exhausted, b.attempts_exhausted);
}

// Runs `scenario` through both clock paths, expects the same status,
// metrics and end time from each, and returns the SimClock path's outcome.
template <class Scenario>
Outcome expect_paths_agree(const Scenario& scenario,
                           std::optional<Duration> kill_at = std::nullopt) {
  const Outcome a = run_scenario(ClockPath::kSimClock, scenario, kill_at);
  const Outcome b = run_scenario(ClockPath::kVirtualClock, scenario, kill_at);
  EXPECT_EQ(a.status, b.status);
  expect_same(a.outer, b.outer);
  expect_same(a.inner, b.inner);
  EXPECT_EQ(a.end, b.end);
  return a;
}

TEST(RunTryTest, SucceedsFirstAttempt) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int calls = 0;
    Status s = run_try(clock, rng, TryOptions::times(5), [&](TimePoint) {
      ++calls;
      return Status::success();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(clock.now(), kEpoch);  // no backoff needed
  });
}

TEST(RunTryTest, RetriesUntilSuccess) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int calls = 0;
    Status s = run_try(clock, rng, TryOptions::times(10), [&](TimePoint) {
      ++calls;
      return calls < 4 ? Status::failure("flaky") : Status::success();
    });
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(calls, 4);
    // 3 failures => delays of ~1,2,4 (x jitter in [1,2)): total in [7,14).
    EXPECT_GE(clock.now(), kEpoch + sec(7));
    EXPECT_LT(clock.now(), kEpoch + sec(14));
  });
}

TEST(RunTryTest, AttemptBudgetExhaustedReturnsLastFailure) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int calls = 0;
    TryMetrics metrics;
    TryOptions options = TryOptions::times(3);
    options.metrics = &metrics;
    Status s = run_try(clock, rng, options, [&](TimePoint) {
      ++calls;
      return Status::failure("always #" + std::to_string(calls));
    });
    EXPECT_TRUE(s.failed());
    EXPECT_EQ(s.message(), "always #3");
    EXPECT_EQ(calls, 3);
    EXPECT_TRUE(metrics.attempts_exhausted);
    EXPECT_FALSE(metrics.timed_out);
    EXPECT_EQ(metrics.attempts, 3);
    EXPECT_EQ(metrics.failures, 3);
  });
}

TEST(RunTryTest, TimeBudgetExpiresBetweenAttempts) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TryMetrics metrics;
    TryOptions options = TryOptions::for_time(sec(10));
    options.metrics = &metrics;
    Status s = run_try(clock, rng, options, [&](TimePoint) {
      return Status::failure("nope");
    });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_TRUE(metrics.timed_out);
    EXPECT_EQ(clock.now(), kEpoch + sec(10));  // exactly at the budget
    EXPECT_GE(metrics.attempts, 2);
  });
}

TEST(RunTryTest, TimeBudgetAbortsRunningAttempt) {
  // The paper: "If the limit should expire during the execution of a
  // procedure, then that procedure is forcibly terminated."
  bool attempt_completed = false;
  const Outcome out =
      expect_paths_agree([&](Context& ctx, auto& clock, Rng& rng, Outcome& o) {
        TryOptions options = TryOptions::for_time(sec(5));
        options.metrics = &o.outer;
        return run_try(clock, rng, options, [&](TimePoint) {
          ctx.sleep(hours(1));  // wedged operation
          attempt_completed = true;
          return Status::success();
        });
      });
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  EXPECT_FALSE(attempt_completed);
  EXPECT_EQ(out.outer.attempts, 1);
  EXPECT_TRUE(out.outer.timed_out);
  EXPECT_EQ(out.outer.elapsed, sec(5));
  EXPECT_EQ(out.end, kEpoch + sec(5));
}

TEST(RunTryTest, CombinedBudgetWhicheverFirst_TimeWins) {
  run_on_both_clocks([](Context& ctx, auto& clock, Rng& rng) {
    TryOptions options = TryOptions::for_time_or_times(sec(3), 100);
    Status s = run_try(clock, rng, options, [&](TimePoint) {
      ctx.sleep(sec(1));
      return Status::failure("x");
    });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(clock.now(), kEpoch + sec(3));
  });
}

TEST(RunTryTest, CombinedBudgetWhicheverFirst_AttemptsWin) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TryOptions options = TryOptions::for_time_or_times(hours(10), 2);
    int calls = 0;
    Status s = run_try(clock, rng, options, [&](TimePoint) {
      ++calls;
      return Status::failure("x");
    });
    EXPECT_TRUE(s.failed());
    EXPECT_NE(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(calls, 2);
  });
}

TEST(RunTryTest, ZeroAttemptLimitFailsWithoutRunning) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int calls = 0;
    Status s = run_try(clock, rng, TryOptions::times(0), [&](TimePoint) {
      ++calls;
      return Status::success();
    });
    EXPECT_TRUE(s.failed());
    EXPECT_EQ(s.message(), "try: no attempts made");
    EXPECT_EQ(calls, 0);
  });
}

TEST(RunTryTest, AttemptReceivesOverallDeadline) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TimePoint seen{};
    (void)run_try(clock, rng, TryOptions::for_time(minutes(5)),
                  [&](TimePoint deadline) {
                    seen = deadline;
                    return Status::success();
                  });
    EXPECT_EQ(seen, kEpoch + minutes(5));
  });
}

TEST(RunTryTest, NoTimeLimitPassesMaxDeadline) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TimePoint seen{};
    (void)run_try(clock, rng, TryOptions::times(1), [&](TimePoint deadline) {
      seen = deadline;
      return Status::success();
    });
    EXPECT_EQ(seen, TimePoint::max());
  });
}

TEST(RunTryTest, NestedTriesInnerTimeoutIsOuterFailure) {
  // try for 30s { try for 2s { always-fail } } -- the inner try times out,
  // the outer retries it, and eventually the outer times out too.
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int inner_runs = 0;
    TryMetrics outer_metrics;
    TryOptions outer = TryOptions::for_time(sec(30));
    outer.metrics = &outer_metrics;
    Status s = run_try(clock, rng, outer, [&](TimePoint) {
      return run_try(clock, rng, TryOptions::for_time(sec(2)),
                     [&](TimePoint) {
                       ++inner_runs;
                       return Status::failure("persistent");
                     });
    });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(clock.now(), kEpoch + sec(30));
    EXPECT_GT(outer_metrics.attempts, 1);
    EXPECT_GT(inner_runs, outer_metrics.attempts);  // inner retried too
  });
}

TEST(RunTryTest, OuterDeadlineCutsInnerTryMidFlight) {
  // Outer limit shorter than inner: the outer deadline must preempt the
  // inner try's attempt and surface as the OUTER timeout.  The inner try
  // lets the enclosing deadline through instead of timing out itself.
  const Outcome out =
      expect_paths_agree([](Context& ctx, auto& clock, Rng& rng, Outcome& o) {
        TryOptions outer = TryOptions::for_time(sec(5));
        outer.metrics = &o.outer;
        TryOptions inner = TryOptions::for_time(hours(1));
        inner.metrics = &o.inner;
        return run_try(clock, rng, outer, [&](TimePoint) {
          return run_try(clock, rng, inner, [&](TimePoint) {
            ctx.sleep(minutes(10));
            return Status::success();
          });
        });
      });
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(out.outer.timed_out);
  EXPECT_FALSE(out.inner.timed_out);
  EXPECT_EQ(out.inner.attempts, 1);
  EXPECT_EQ(out.inner.elapsed, sec(5));
  EXPECT_EQ(out.end, kEpoch + sec(5));
}

TEST(RunTryTest, MetricsFlushedEvenWhenOuterDeadlineUnwinds) {
  const Outcome out =
      expect_paths_agree([](Context& ctx, auto& clock, Rng& rng, Outcome& o) {
        TryOptions inner = TryOptions::for_time(hours(1));
        inner.metrics = &o.inner;
        return run_try(clock, rng, TryOptions::for_time(sec(3)),
                       [&](TimePoint) {
                         return run_try(clock, rng, inner, [&](TimePoint) {
                           ctx.sleep(sec(1));
                           return Status::failure("slow");
                         });
                       });
      });
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  // Recorded despite the forcible unwind.
  EXPECT_GE(out.inner.attempts, 1);
  EXPECT_GT(out.inner.backoff_total, Duration(0));
  EXPECT_EQ(out.inner.elapsed, sec(3));
}

TEST(RunTryTest, BackoffDelaysAreCappedByRemainingBudget) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TryOptions options = TryOptions::for_time(sec(100));
    options.backoff = BackoffPolicy::fixed(hours(5));  // absurd delay
    Status s = run_try(clock, rng, options,
                       [&](TimePoint) { return Status::failure("x"); });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(clock.now(), kEpoch + sec(100));  // not 5 hours
  });
}

TEST(RunTryTest, ZeroCostFailingAttemptCannotLivelock) {
  // A Fixed client (no backoff) retrying an instantaneous failure must still
  // advance virtual time via the min_cycle floor and hit the time budget.
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TryOptions options = TryOptions::for_time(sec(1));
    options.backoff = BackoffPolicy::none();
    TryMetrics metrics;
    options.metrics = &metrics;
    Status s = run_try(clock, rng, options,
                       [&](TimePoint) { return Status::failure("instant"); });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(clock.now(), kEpoch + sec(1));
    // min_cycle 1 ms => ~1000 attempts in the 1 s budget.
    EXPECT_GE(metrics.attempts, 900);
    EXPECT_LE(metrics.attempts, 1100);
  });
}

TEST(RunTryTest, MinCycleDoesNotInflateSlowAttempts) {
  run_on_both_clocks([](Context& ctx, auto& clock, Rng& rng) {
    TryOptions options = TryOptions::times(3);
    options.backoff = BackoffPolicy::none();
    Status s = run_try(clock, rng, options, [&](TimePoint) {
      ctx.sleep(sec(2));  // attempt already costs more than min_cycle
      return Status::failure("slow");
    });
    EXPECT_TRUE(s.failed());
    EXPECT_EQ(clock.now(), kEpoch + sec(6));  // exactly 3 x 2 s, no padding
  });
}

TEST(RunTryTest, KillDuringTryPropagatesInterrupted) {
  // Attempts fail at once, so the kill lands in a backoff sleep and every
  // virtual second until it was spent backing off.
  const Outcome out = expect_paths_agree(
      [](Context&, auto& clock, Rng& rng, Outcome& o) {
        TryOptions options = TryOptions::for_time(hours(5));
        options.metrics = &o.outer;
        (void)run_try(clock, rng, options,
                      [](TimePoint) { return Status::failure("always"); });
        ADD_FAILURE() << "run_try returned after kill";
        return Status::success();
      },
      sec(30));
  EXPECT_EQ(out.status.code(), StatusCode::kKilled);
  EXPECT_GE(out.outer.attempts, 2);
  EXPECT_EQ(out.outer.backoff_total, sec(30));
  EXPECT_EQ(out.outer.elapsed, sec(30));
  EXPECT_EQ(out.end, kEpoch + sec(30));
}

TEST(RunTryTest, MoveOnlyAttemptIsNeverCopied) {
  // A std::function cannot hold this attempt, so this only compiles while
  // no layer of run_try wraps the attempt in one.
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    auto left = std::make_unique<int>(3);
    Status s = run_try(clock, rng, TryOptions::times(5),
                       [left = std::move(left)](TimePoint) {
                         return --*left > 0 ? Status::failure("not yet")
                                            : Status::success();
                       });
    EXPECT_TRUE(s.ok());
  });
}

TEST(RunTryTest, SuccessStatusIsReturnedVerbatim) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    Status s = run_try(clock, rng, TryOptions::times(1),
                       [&](TimePoint) { return Status::success(); });
    EXPECT_EQ(s, Status::success());
  });
}

// A clock whose sleeps are cut short, the way a forall abort (or any
// cooperative wake) truncates a real backoff delay.
class TruncatingClock final : public Clock {
 public:
  explicit TruncatingClock(Duration cap) : cap_(cap) {}
  TimePoint now() override { return now_; }
  void sleep(Duration d) override { now_ += std::min(d, cap_); }
  Status with_deadline(TimePoint,
                       const std::function<Status()>& fn) override {
    return fn();
  }

 private:
  Duration cap_;
  TimePoint now_ = kEpoch;
};

TEST(TryMetricsTest, TruncatedBackoffRecordsSleptNotRequested) {
  TruncatingClock clock(msec(5));  // every sleep is interrupted after 5 ms
  Rng rng(1);
  TryMetrics metrics;
  TryOptions options = TryOptions::times(2);
  options.backoff = BackoffPolicy::fixed(msec(100));
  options.metrics = &metrics;
  Status s = run_try(clock, rng, options,
                     [](TimePoint) { return Status::failure("nope"); });
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(metrics.attempts, 2);
  // One backoff between the two attempts: 100 ms was requested, 5 ms was
  // actually slept, and only the slept time may be reported.
  EXPECT_EQ(metrics.backoff_total, msec(5));
}

// A clock whose sleeps advance a little and then unwind, the way a kill or
// an enclosing deadline ends a backoff sleep in the simulator.
class UnwindingClock final : public Clock {
 public:
  TimePoint now() override { return now_; }
  void sleep(Duration) override {
    now_ += msec(5);
    throw sim::Interrupted{"killed mid-backoff"};
  }
  Status with_deadline(TimePoint,
                       const std::function<Status()>& fn) override {
    return fn();
  }

 private:
  TimePoint now_ = kEpoch;
};

TEST(TryMetricsTest, UnwoundBackoffRecordsSleptTime) {
  UnwindingClock clock;
  Rng rng(1);
  TryMetrics metrics;
  TryOptions options = TryOptions::times(2);
  options.backoff = BackoffPolicy::fixed(msec(100));
  options.metrics = &metrics;
  EXPECT_THROW(run_try(clock, rng, options,
                       [](TimePoint) { return Status::failure("nope"); }),
               sim::Interrupted);
  EXPECT_EQ(metrics.attempts, 1);
  EXPECT_EQ(metrics.backoff_total, msec(5));
  EXPECT_EQ(metrics.elapsed, msec(5));
}

TEST(TryMetricsTest, MergeAccumulates) {
  TryMetrics a, b;
  a.attempts = 2;
  a.failures = 1;
  a.backoff_total = sec(3);
  b.attempts = 3;
  b.failures = 3;
  b.timed_out = true;
  a.merge(b);
  EXPECT_EQ(a.attempts, 5);
  EXPECT_EQ(a.failures, 4);
  EXPECT_EQ(a.backoff_total, sec(3));
  EXPECT_TRUE(a.timed_out);
  EXPECT_FALSE(a.succeeded);
}

}  // namespace
}  // namespace ethergrid::core
