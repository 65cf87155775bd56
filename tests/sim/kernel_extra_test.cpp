// Additional kernel edges: shutdown semantics, event pokes between runs,
// nested kernels, thread ownership, time-limit boundary conditions, fiber
// stack overflow and arena exhaustion.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

// Recurses through frames holding a 256-byte buffer until a frame lies at
// or below `floor`.  The work after each call keeps every frame live (no
// tail call), and the filled buffers leave non-zero bytes wherever the
// frames were.
[[gnu::noinline]] int descend(std::uintptr_t floor) {
  volatile unsigned char buffer[256];
  for (std::size_t i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<unsigned char>(i | 1);
  }
  const auto here =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  int sum = buffer[0];
  if (here > floor) sum += descend(floor);
  return sum + buffer[sizeof(buffer) - 1];
}

// Runs fiber "deep" on a 64 KiB stack: it recurses down to `offset` bytes
// above its stack's low end (below it, if negative) and then runs `then`.
// Stacks are page-aligned and the body's frame lies in the top page, so
// rounding that frame up to a page finds the stack's top.
void run_descent(std::ptrdiff_t offset, void (*then)(Context&)) {
  constexpr std::uintptr_t kStackBytes = 64 << 10;
  KernelOptions opt;
  opt.fiber_stack_bytes = kStackBytes;
  Kernel k(1, opt);
  k.spawn("deep", [offset, then](Context& ctx) {
    const auto page = std::uintptr_t(::sysconf(_SC_PAGESIZE));
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    const std::uintptr_t lo = (frame + page - 1) / page * page - kStackBytes;
    EXPECT_GT(descend(lo + offset), 0);
    then(ctx);
  });
  k.run();
}

// An overflow past the stack's low end leaves frame bytes in the zero
// canary band (its lowest 64 bytes).  The fiber's next switch-out aborts,
// naming the process, in every build: a yield (the exit after it must
// never run) or its final departure.
TEST(FiberStackDeathTest, OverflowIntoCanaryAbortsAtYield) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_descent(-(1 << 10),
                           [](Context& ctx) {
                             ctx.yield();
                             std::_Exit(0);
                           }),
               "sim kernel: fiber stack overflow in process 'deep'");
}

TEST(FiberStackDeathTest, OverflowIntoCanaryAbortsAtFinish) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(run_descent(-(1 << 10), [](Context&) {}),
               "sim kernel: fiber stack overflow in process 'deep'");
}

// A recursion whose frames stop 1 KiB short of the band runs clean.
TEST(FiberStack, RecursionShortOfCanaryRuns) {
  run_descent(64 + (1 << 10), [](Context& ctx) { ctx.yield(); });
}

std::size_t address_space_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  return pages * std::size_t(::sysconf(_SC_PAGESIZE));
}

// When a stack arena cannot be mapped, the processes left without a stack
// finish unrun with the mmap reason, and run() returns normally.  The
// address-space limit is set inside the death-test child only.
TEST(FiberStackDeathTest, ArenaMapFailureFinishesProcesses) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        // Room for one arena of 64 four-MiB stacks, not for two, with
        // 192 MiB to spare for the heap (and a sanitizer's own state).
        KernelOptions opt;
        opt.fiber_stack_bytes = 4 << 20;
        Kernel k(1, opt);
        std::vector<ProcessHandle> procs;
        for (int i = 0; i < 100; ++i) {
          procs.push_back(k.spawn("p" + std::to_string(i), [](Context& ctx) {
            ctx.sleep(sec(1));
          }));
        }
        rlimit limit{};
        limit.rlim_cur = limit.rlim_max = address_space_bytes() + (448 << 20);
        if (::setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
        k.run();
        int ran = 0;
        int exhausted = 0;
        for (const ProcessHandle& p : procs) {
          if (!p->finished()) std::_Exit(3);
          const Status result = p->result();
          if (result.ok()) {
            ++ran;
          } else if (result.code() == StatusCode::kResourceExhausted &&
                     result.message().rfind(
                         "fiber stack arena: mmap failed: ", 0) == 0) {
            ++exhausted;
          }
        }
        std::_Exit(ran == 64 && exhausted == 36 ? 0 : 4);
      },
      ::testing::ExitedWithCode(0), "");
}

// True when the page holding `addr` is mapped: mincore fails with ENOMEM
// exactly when it is not.
bool page_mapped(std::uintptr_t addr) {
  const auto page = std::uintptr_t(::sysconf(_SC_PAGESIZE));
  unsigned char resident = 0;
  if (::mincore(reinterpret_cast<void*>(addr / page * page), page,
                &resident) == 0) {
    return true;
  }
  EXPECT_EQ(errno, ENOMEM);
  return false;
}

// Parks on `never` under `depth` frames of 256-byte buffers, each with a
// cleanup, so a kill's unwinding runs below the parked frames on a page
// the fiber had not touched before -- as a parked grid client's does.
[[gnu::noinline]] int park_deep(Context& ctx, Event& never, int depth) {
  volatile unsigned char buffer[256];
  for (std::size_t i = 0; i < sizeof(buffer); ++i) {
    buffer[i] = static_cast<unsigned char>(i | 1);
  }
  const std::string cleanup(32, 'x');  // a landing pad in every frame
  if (depth == 0) {
    ctx.wait(never);
  } else {
    (void)park_deep(ctx, never, depth - 1);
  }
  return buffer[0] + int(cleanup.size());
}

// Shutdown hands each stack arena back as soon as its last fiber has
// unwound: while the fiber in the third arena unwinds, the first arena is
// already unmapped, and after shutdown no arena or pooled stack is left.
TEST(FiberStack, ShutdownUnmapsEachArenaAsItDrains) {
  constexpr int kArenaStacks = 64;  // stacks per arena (kernel.hpp)
  constexpr int kParked = 2 * kArenaStacks + 1;
  Kernel k;
  Event never(k);
  // One stack address per arena: fibers materialize in spawn order, so
  // fiber i lives in arena i / kArenaStacks.
  std::vector<std::uintptr_t> stack_in_arena(3, 0);
  int first_arena_mapped_at_last_unwind = -1;
  // Runs in the last fiber, the only one in the third arena, as it unwinds.
  struct ProbeOnUnwind {
    bool armed;
    const std::uintptr_t& probed;
    int& mapped;
    ~ProbeOnUnwind() {
      if (armed) mapped = page_mapped(probed) ? 1 : 0;
    }
  };
  for (int i = 0; i < kParked; ++i) {
    k.spawn("parked", [&, i](Context& ctx) {
      if (i % kArenaStacks == 0) {
        stack_in_arena[std::size_t(i / kArenaStacks)] =
            reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      }
      const ProbeOnUnwind probe{i == kParked - 1, stack_in_arena[0],
                                first_arena_mapped_at_last_unwind};
      (void)park_deep(ctx, never, 8);
    });
  }
  k.run();
  ASSERT_EQ(k.live_process_count(), std::size_t(kParked));
  // One more fiber runs to completion, so the pool holds a stack too.
  k.spawn("done", [](Context&) {});
  k.run();
  EXPECT_EQ(k.pooled_stack_count(), 1u);
  for (const std::uintptr_t addr : stack_in_arena) {
    ASSERT_NE(addr, 0u);
    EXPECT_TRUE(page_mapped(addr));
  }

  k.shutdown();
  EXPECT_EQ(first_arena_mapped_at_last_unwind, 0);
  for (const std::uintptr_t addr : stack_in_arena) {
    EXPECT_FALSE(page_mapped(addr));
  }
  EXPECT_EQ(k.pooled_stack_count(), 0u);
  EXPECT_EQ(k.live_process_count(), 0u);
}

}  // namespace
}  // namespace ethergrid::sim
