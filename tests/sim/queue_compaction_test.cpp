// Regression tests for stale-wakeup accounting and queue compaction.
//
// The kernel cancels wakeups lazily: a consumed or killed wakeup leaves its
// queue entry behind (token mismatch) to be skipped on pop.  Before
// compaction existed, a long-lived process that kept racing an event
// against a long timeout stranded one far-future entry per cycle and the
// queue grew for the whole run.  These tests pin the O(live) bound, and --
// since stale_wakeups_ is a size_t -- that the accounting never underflows:
// a wrapped counter trips the stale > size/2 trigger on every schedule and
// locks the queue into permanent O(n) compaction, which the depth bounds
// below would catch (debug builds additionally audit the exact counts after
// every queue operation and abort on mismatch).
#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace ethergrid::sim {
namespace {

// The classic leak: wait_for(event, long_timeout) where the event always
// wins.  Each cycle schedules a timer entry hours in the future that can
// only die by compaction.
TEST(QueueCompaction, EventWinsLeavesNoUnboundedTimerResidue) {
  Kernel kernel(1);
  Event tick(kernel);
  constexpr int kCycles = 20000;
  kernel.spawn("poller", [&](Context& ctx) {
    for (int i = 0; i < kCycles; ++i) {
      const bool fired = ctx.wait_for(tick, hours(24));
      ASSERT_TRUE(fired);
    }
  });
  kernel.spawn("pulser", [&](Context& ctx) {
    for (int i = 0; i < kCycles; ++i) {
      ctx.sleep(msec(1));
      tick.pulse();
    }
  });

  std::size_t max_depth = 0;
  while (kernel.run_for(sec(1))) {
    max_depth = std::max(max_depth, kernel.queue_depth());
  }
  // 20k cycles stranded 20k far-future entries; compaction must keep the
  // queue near the live population (2 processes), not the cycle count.
  EXPECT_LE(max_depth, 128u);
  EXPECT_EQ(kernel.live_process_count(), 0u);
}

// Pure timeout churn: every wakeup is consumed at its own time, so depth
// must stay flat even without compaction.  Guards the accounting itself.
TEST(QueueCompaction, RepeatedWaitForTimeoutsStayFlat) {
  Kernel kernel(1);
  Event never(kernel);
  kernel.spawn("poller", [&](Context& ctx) {
    for (int i = 0; i < 5000; ++i) {
      const bool fired = ctx.wait_for(never, msec(10));
      ASSERT_FALSE(fired);
    }
  });
  std::size_t max_depth = 0;
  while (kernel.run_for(sec(1))) {
    max_depth = std::max(max_depth, kernel.queue_depth());
  }
  EXPECT_LE(max_depth, 8u);
}

// Kill-heavy churn: killing a blocked process invalidates its pending
// wakeups; the stale count must come back down via pops or compaction and
// never go negative (which would show up as a huge queue_depth bound).
TEST(QueueCompaction, KilledSleepersAreCompactedAway) {
  Kernel kernel(7);
  for (int i = 0; i < 500; ++i) {
    auto sleeper = kernel.spawn("sleeper", [](Context& ctx) {
      ctx.sleep(hours(1000));
    });
    kernel.spawn("killer", [sleeper](Context& ctx) {
      ctx.sleep(msec(1));
      ctx.kill(*sleeper, "cull");
    });
    kernel.run_for(msec(2));
  }
  kernel.run();
  EXPECT_EQ(kernel.live_process_count(), 0u);
  EXPECT_LE(kernel.queue_depth(), 64u);
}

// Underflow regression (the stale_wakeups_ bugfix): processes that FINISH
// while a stranded entry for them is still queued.  Each waiter wins its
// event race -- stranding a +24h timeout entry -- and immediately ends.
// Finishing must retire the process's remaining entries into the stale
// count exactly once (token bump at finish) so that staleness stays a pure
// token comparison: the wheel's drop predicate never reads process state,
// so a finished process whose entries still token-matched would be
// delivered dead, and a double-counted hand-off wraps the size_t counter
// when the stranded entries are later popped or purged.  The
// permanent-compaction fallout would show up here as a blown depth bound;
// debug builds additionally abort in the accounting audit.
TEST(QueueCompaction, FinishedProcessesWithStrandedEntriesDrainExactly) {
  Kernel kernel(42);
  Event tick(kernel);
  constexpr int kWaiters = 300;
  for (int i = 0; i < kWaiters; ++i) {
    kernel.spawn("oneshot" + std::to_string(i), [&](Context& ctx) {
      // Event wins; the +24h timeout entry outlives the process.
      ASSERT_TRUE(ctx.wait_for(tick, hours(24)));
    });
  }
  kernel.spawn("pulser", [&](Context& ctx) {
    for (int i = 0; i < kWaiters; ++i) {
      ctx.sleep(usec(10));
      tick.pulse();
    }
  });
  // Let every waiter finish; their stranded entries are still queued.
  ASSERT_FALSE(kernel.run_until(TimePoint(sec(1))));
  EXPECT_EQ(kernel.live_process_count(), 0u);
  // Advance past every stranded entry: each one must be dropped as stale
  // (counter decremented exactly once), leaving a truly empty queue.
  EXPECT_FALSE(kernel.run_until(TimePoint(hours(48))));
  EXPECT_EQ(kernel.queue_depth(), 0u);

  // The accounting must still be exact: fresh work schedules and drains
  // normally (a wrapped counter would force compaction on every schedule
  // and, in debug builds, abort the audit long before this point).
  kernel.spawn("after", [&](Context& ctx) { ctx.sleep(msec(5)); });
  kernel.run();
  EXPECT_EQ(kernel.queue_depth(), 0u);
  EXPECT_EQ(kernel.live_process_count(), 0u);
}

// A cascade moves cells between the wheel's rings without reading their
// processes, so a stale cell rides it down to where it surfaces: a level-0
// drain, or -- for a cell on a coarse slot's first microsecond, which the
// cascade hands straight to the ready run -- the pop's recheck.  Waiters
// whose timeouts sit on a coarse slot are woken early by an event, which
// strands those timeouts in place; most waiters then finish with theirs
// still queued.  Enough live sleepers keep stale entries under half the
// queue, so compaction never fires and every stale cell must be dropped at
// delivery, with the counters exact before and after.
TEST(QueueCompaction, StaleCellsCarriedThroughACascadeDropAtDelivery) {
  Kernel kernel(1);
  Event go(kernel);
  constexpr int kWaiters = 64;
  constexpr int kSleepers = 16;  // waiters that outlive their timeouts
  constexpr int kAnchors = 100;  // live far-future entries
  const Duration edge = usec(5 * 65536);  // a level-2 slot's first us
  for (int i = 0; i < kWaiters; ++i) {
    kernel.spawn("waiter", [&, i](Context& ctx) {
      const Duration timeout = i % 2 == 0 ? edge : edge + usec(1000 + i);
      EXPECT_TRUE(ctx.wait_for(go, timeout));
      if (i % 4 == 0) ctx.sleep(sec(1));
    });
  }
  for (int i = 0; i < kAnchors; ++i) {
    kernel.spawn("anchor", [](Context& ctx) { ctx.sleep(sec(10)); });
  }
  kernel.spawn("monitor", [&](Context& ctx) {
    ctx.sleep(msec(1));
    go.set();  // every waiter's timeout entry goes stale where it is filed
    ctx.sleep(msec(299));
    Status accounting = kernel.verify_queue_accounting();
    EXPECT_TRUE(accounting.ok()) << accounting.message();
    EXPECT_EQ(kernel.queue_depth(),
              std::size_t(kWaiters + kSleepers + kAnchors));
    ctx.sleep(msec(100));  // past every stranded timeout
    accounting = kernel.verify_queue_accounting();
    EXPECT_TRUE(accounting.ok()) << accounting.message();
    EXPECT_EQ(kernel.queue_depth(), std::size_t(kSleepers + kAnchors));
    // Only the sleeping waiters, the anchors and this monitor are live.
    EXPECT_EQ(kernel.live_process_count(),
              std::size_t(kSleepers + kAnchors + 1));
  });
  kernel.run();
  const Status accounting = kernel.verify_queue_accounting();
  EXPECT_TRUE(accounting.ok()) << accounting.message();
  EXPECT_EQ(kernel.queue_depth(), 0u);
  EXPECT_EQ(kernel.live_process_count(), 0u);
}

// Kill-the-running-process regression: Kernel::kill must invalidate the
// current process's wake token too.  A self-killed process that then
// blocks must unwind promptly (Interrupted at the next yield point), not
// strand a live-counted entry until its full timeout elapses.
TEST(QueueCompaction, KillingRunningProcessTakesEffectAtNextYield) {
  Kernel kernel(7);
  bool interrupted = false;
  bool resumed_after_kill = false;
  auto victim = kernel.spawn("self-kill", [&](Context& ctx) {
    ctx.kill(ctx.process(), "suicide");
    try {
      ctx.sleep(hours(1000));
      resumed_after_kill = true;
    } catch (const Interrupted&) {
      interrupted = true;
      throw;
    }
  });
  kernel.run_until(TimePoint(sec(1)));
  EXPECT_TRUE(interrupted);
  EXPECT_FALSE(resumed_after_kill);
  EXPECT_EQ(kernel.live_process_count(), 0u);
  // The +1000h sleep entry must be accounted stale, not live: advancing
  // past it is pure bookkeeping and the queue ends empty.
  EXPECT_FALSE(kernel.run_until(TimePoint(hours(2000))));
  EXPECT_EQ(kernel.queue_depth(), 0u);
  (void)victim;
}

}  // namespace
}  // namespace ethergrid::sim
