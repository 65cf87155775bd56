// run_try semantics over virtual time.
#include "core/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/sim_clock.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::core {
namespace {

using sim::Context;
using sim::Kernel;

// Runs `body` inside a fresh simulated process and returns after the kernel
// drains.  Shared harness for all core-over-sim tests.
void run_in_sim(const std::function<void(Context&, SimClock&, Rng&)>& body,
                std::uint64_t seed = 1) {
  Kernel kernel(seed);
  kernel.spawn("test", [&](Context& ctx) {
    SimClock clock(ctx);
    Rng rng = ctx.rng();
    body(ctx, clock, rng);
  });
  kernel.run();
}

TEST(RunTryTest, SucceedsFirstAttempt) {
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context& ctx, SimClock& clock, Rng& rng) {
    bool attempt_completed = false;
    Status s = run_try(clock, rng, TryOptions::for_time(sec(5)),
                       [&](TimePoint) {
                         ctx.sleep(hours(1));  // wedged operation
                         attempt_completed = true;
                         return Status::success();
                       });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_FALSE(attempt_completed);
    EXPECT_EQ(clock.now(), kEpoch + sec(5));
  });
}

TEST(RunTryTest, CombinedBudgetWhicheverFirst_TimeWins) {
  run_in_sim([](Context& ctx, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
    int calls = 0;
    Status s = run_try(clock, rng, TryOptions::times(0), [&](TimePoint) {
      ++calls;
      return Status::success();
    });
    EXPECT_TRUE(s.failed());
    EXPECT_EQ(calls, 0);
  });
}

TEST(RunTryTest, AttemptReceivesOverallDeadline) {
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  // inner try's attempt and surface as the OUTER timeout.
  run_in_sim([](Context& ctx, SimClock& clock, Rng& rng) {
    Status s = run_try(clock, rng, TryOptions::for_time(sec(5)),
                       [&](TimePoint) {
                         return run_try(clock, rng,
                                        TryOptions::for_time(hours(1)),
                                        [&](TimePoint) {
                                          ctx.sleep(minutes(10));
                                          return Status::success();
                                        });
                       });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(clock.now(), kEpoch + sec(5));
  });
}

TEST(RunTryTest, MetricsFlushedEvenWhenOuterDeadlineUnwinds) {
  run_in_sim([](Context& ctx, SimClock& clock, Rng& rng) {
    TryMetrics metrics;
    TryOptions inner = TryOptions::for_time(hours(1));
    inner.metrics = &metrics;
    Status outer =
        run_try(clock, rng, TryOptions::for_time(sec(3)), [&](TimePoint) {
          return run_try(clock, rng, inner, [&](TimePoint) {
            ctx.sleep(sec(1));
            return Status::failure("slow");
          });
        });
    EXPECT_EQ(outer.code(), StatusCode::kTimeout);
    EXPECT_GE(metrics.attempts, 1);  // recorded despite forcible unwind
  });
}

TEST(RunTryTest, BackoffDelaysAreCappedByRemainingBudget) {
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
  run_in_sim([](Context& ctx, SimClock& clock, Rng& rng) {
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
  Kernel kernel;
  sim::ProcessHandle worker = kernel.spawn("worker", [&](Context& ctx) {
    SimClock clock(ctx);
    Rng rng = ctx.rng();
    (void)run_try(clock, rng, TryOptions::for_time(hours(5)),
                  [&](TimePoint) { return Status::failure("always"); });
    ADD_FAILURE() << "run_try returned after kill";
  });
  kernel.spawn("killer", [&](Context& ctx) {
    ctx.sleep(sec(30));
    ctx.kill(worker);
  });
  kernel.run();
  EXPECT_EQ(worker->result().code(), StatusCode::kKilled);
}

TEST(RunTryTest, SuccessStatusIsReturnedVerbatim) {
  run_in_sim([](Context&, SimClock& clock, Rng& rng) {
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
