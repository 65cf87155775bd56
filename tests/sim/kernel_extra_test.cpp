// Additional kernel edges: shutdown semantics, event pokes between runs,
// nested kernels, thread ownership, time-limit boundary conditions.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <thread>

#include "sim/kernel.hpp"
#include "sim/shard.hpp"

namespace ethergrid::sim {
namespace {

TEST(KernelExtraTest, ShutdownIsIdempotent) {
  Kernel k;
  Event never(k);
  k.spawn("blocked", [&](Context& ctx) { ctx.wait(never); });
  k.run();
  k.shutdown();
  k.shutdown();
  EXPECT_EQ(k.live_process_count(), 0u);
}

TEST(KernelExtraTest, SpawnAfterShutdownIsStillborn) {
  Kernel k;
  k.shutdown();
  bool ran = false;
  auto p = k.spawn("late", [&](Context&) { ran = true; });
  k.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(p->result().code(), StatusCode::kKilled);
}

TEST(KernelExtraTest, RunUntilPastTimeIsNoOpOnClock) {
  Kernel k;
  k.run_until(kEpoch + sec(10));
  EXPECT_EQ(k.now(), kEpoch + sec(10));
  k.run_until(kEpoch + sec(5));  // earlier than now: must not go back
  EXPECT_EQ(k.now(), kEpoch + sec(10));
}

TEST(KernelExtraTest, EventSetBetweenRunsWakesAtNextRun) {
  Kernel k;
  Event e(k);
  TimePoint woke{};
  k.spawn("waiter", [&](Context& ctx) {
    ctx.wait(e);
    woke = ctx.now();
  });
  k.run_until(kEpoch + sec(3));
  EXPECT_EQ(woke, TimePoint{});  // still blocked
  e.set();                       // poked from the main thread
  k.run_until(kEpoch + sec(6));
  EXPECT_EQ(woke, kEpoch + sec(3));  // woken at the set's timestamp
}

TEST(KernelExtraTest, WaitForZeroTimeoutPollsOnce) {
  Kernel k;
  Event unset(k), preset(k);
  preset.set();
  bool got_unset = true, got_preset = false;
  k.spawn("p", [&](Context& ctx) {
    got_unset = ctx.wait_for(unset, Duration(0));
    got_preset = ctx.wait_for(preset, Duration(0));
  });
  k.run();
  EXPECT_FALSE(got_unset);
  EXPECT_TRUE(got_preset);
}

TEST(KernelExtraTest, FailureMessageSurvivesInResult) {
  Kernel k;
  k.set_propagate_errors(false);
  auto p = k.spawn("thrower", [](Context&) {
    throw std::runtime_error("the specific reason");
  });
  k.run();
  EXPECT_EQ(p->result().message(), "the specific reason");
}

TEST(KernelExtraTest, ManySequentialKernelsDoNotInterfere) {
  // Guards against hidden global state across kernel instances.
  for (int i = 0; i < 20; ++i) {
    Kernel k(std::uint64_t(i + 1));
    TimePoint done{};
    k.spawn("p", [&](Context& ctx) {
      ctx.sleep(sec(1));
      done = ctx.now();
    });
    k.run();
    EXPECT_EQ(done, kEpoch + sec(1));
  }
}

TEST(KernelExtraTest, KilledProcessDoneEventStillFiresForJoiners) {
  Kernel k;
  Event never(k);
  auto victim = k.spawn("victim", [&](Context& ctx) { ctx.wait(never); });
  TimePoint joined{};
  k.spawn("joiner", [&](Context& ctx) {
    ctx.join(victim);
    joined = ctx.now();
  });
  k.spawn("killer", [&](Context& ctx) {
    ctx.sleep(sec(2));
    ctx.kill(victim);
  });
  k.run();
  EXPECT_EQ(joined, kEpoch + sec(2));
}

TEST(KernelExtraTest, ZeroDurationRunForProcessesSameInstantEvents) {
  Kernel k;
  bool ran = false;
  k.spawn("p", [&](Context&) { ran = true; });
  k.run_for(Duration(0));
  EXPECT_TRUE(ran);  // start event was scheduled at t=0
}

TEST(KernelExtraTest, DeadlineAtExactlyNowThrowsOnEntry) {
  Kernel k;
  bool threw = false;
  k.spawn("p", [&](Context& ctx) {
    ctx.sleep(sec(1));
    try {
      DeadlineScope scope(ctx, ctx.now());  // deadline == now
      ctx.sleep(Duration(0));
    } catch (const DeadlineExceeded&) {
      threw = true;
    }
  });
  k.run();
  EXPECT_TRUE(threw);
}

// Same-instant FIFO fairness: when several processes yield() at the same
// virtual instant, they must proceed round-robin in (time, seq) order -- no
// process may run twice before a same-instant peer runs once.
TEST(KernelExtraTest, SameInstantYieldIsFifoFair) {
  Kernel k(1);
  std::string transcript;
  for (const char* name : {"a", "b", "c"}) {
    k.spawn(name, [&transcript, name](Context& ctx) {
      for (int round = 0; round < 3; ++round) {
        transcript += name;
        ctx.yield();
      }
    });
  }
  k.run();
  // Spawn order seeds the rotation; every round is a full a,b,c sweep.
  EXPECT_EQ(transcript, "abcabcabc");
}

// One thread owns a kernel while it drains, and that covers nesting: a
// process of the outer kernel drives an inner kernel's run(), and a
// process of the inner kernel calls back into the outer one -- sets an
// outer Event, spawns into the outer kernel and reads its process count.
// The outer waiter then wakes and both kernels drain.
TEST(KernelExtraTest, NestedKernelCallsBackIntoOuterKernel) {
  Kernel outer;
  Event outer_event(outer);
  TimePoint waiter_woke{};
  bool spawned_ran = false;
  std::size_t live_seen = 0;
  outer.spawn("waiter", [&](Context& ctx) {
    ctx.wait(outer_event);
    waiter_woke = ctx.now();
  });
  outer.spawn("host", [&](Context& ctx) {
    ctx.sleep(sec(1));
    Kernel inner;
    inner.spawn("inner", [&](Context& inner_ctx) {
      inner_ctx.sleep(sec(5));  // inner virtual time only
      outer_event.set();
      outer.spawn("spawned", [&](Context&) { spawned_ran = true; });
      live_seen = outer.live_process_count();
    });
    inner.run();
    EXPECT_EQ(inner.now(), kEpoch + sec(5));
    EXPECT_EQ(inner.live_process_count(), 0u);
    ctx.sleep(sec(1));
  });
  outer.run();
  EXPECT_EQ(live_seen, 3u);  // waiter (woken, not yet run), host, spawned
  EXPECT_EQ(waiter_woke, kEpoch + sec(1));
  EXPECT_TRUE(spawned_ran);
  EXPECT_EQ(outer.now(), kEpoch + sec(2));
  EXPECT_EQ(outer.live_process_count(), 0u);
}

// A parked fiber must resume on the OS thread that materialized it
// (shard.hpp, "Thread affinity").  Debug and audit builds check it and
// abort, naming the process; release builds carry no check.
TEST(KernelExtraDeathTest, ResumeOnAnotherThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the thread-affinity check is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Kernel k;
        k.spawn("sleeper", [](Context& ctx) {
          ctx.sleep(sec(1));
          ctx.sleep(sec(1));
        });
        // Thread A dispatches the sleeper (materializing its fiber) and
        // stops mid-sleep; thread B's drain then resumes it.  A stays
        // alive meanwhile, so B cannot inherit its recycled thread id.
        std::promise<void> materialized;
        std::promise<void> release;
        std::thread a([&] {
          k.run_until(kEpoch + msec(500));
          materialized.set_value();
          release.get_future().wait();
        });
        materialized.get_future().wait();
        std::thread b([&] { k.run(); });
        b.join();
        release.set_value();
        a.join();
      },
      "process 'sleeper' resumed on a different OS thread");
#endif
}

// A kernel belongs to the thread draining it (kernel.hpp, "Ownership").
// Debug and audit builds abort, naming both threads, when another thread
// calls in while the drain runs; release builds carry no check.
TEST(KernelExtraDeathTest, SpawnFromAnotherThreadMidDrainAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the owner check is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Thread A drains k; its process parks A's OS thread mid-body.
        // Thread B spawns into k meanwhile.
        Kernel k;
        std::promise<void> draining;
        std::promise<void> release;
        k.spawn("parker", [&](Context&) {
          draining.set_value();
          release.get_future().wait();
        });
        std::thread a([&] { k.run(); });
        draining.get_future().wait();
        std::thread b([&] { k.spawn("intruder", [](Context&) {}); });
        b.join();
        release.set_value();
        a.join();
      },
      "sim kernel: called from thread .* while thread .* is draining it");
#endif
}

// A ShardedKernel runs shard 0's fibers on its calling thread (worker 0),
// at every thread count, so every call must come from the thread that
// made the first one.  Debug and audit builds abort, naming both threads.
TEST(KernelExtraDeathTest, ShardedKernelCallFromAnotherThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the caller-thread check is compiled out under NDEBUG";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Thread A builds the kernel, runs it partway (materializing
        // shard 0's sleeper on A) and later destroys it; thread B calls
        // run() in between.  A stays alive meanwhile, so B cannot inherit
        // its recycled thread id, and no call but B's is on a stray thread.
        ShardedKernelOptions opt;
        opt.shards = 2;
        opt.threads = 2;
        std::unique_ptr<ShardedKernel> sk;
        std::promise<void> started;
        std::promise<void> release;
        std::thread a([&] {
          sk = std::make_unique<ShardedKernel>(1, opt);
          sk->spawn(0, "sleeper", [](Context& ctx) { ctx.sleep(sec(1)); });
          sk->run_until(kEpoch + msec(500));
          started.set_value();
          release.get_future().wait();
          sk.reset();
        });
        started.get_future().wait();
        std::thread b([&] { sk->run(); });
        b.join();
        release.set_value();
        a.join();
      },
      "sim sharded kernel: called from thread .*, but thread .* owns it");
#endif
}

}  // namespace
}  // namespace ethergrid::sim
