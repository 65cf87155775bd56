// Lazy materialization + pooling lifecycle pins.
//
// The kernel materializes a process's fiber (stack + context) at FIRST
// DISPATCH rather than at spawn, and recycles finished process objects
// and stacks through bounded freelists.  These tests pin
// the observable contract of that machinery:
//
//   - a process killed before its first dispatch finishes kKilled without
//     its body ever running and without a fiber stack ever existing;
//   - spawns racing shutdown produce already-killed processes instead of
//     leaking work into a draining kernel;
//   - recycled process objects and stacks are actually reused (the pools
//     plateau instead of growing with every wave);
//   - under AddressSanitizer, pooled stacks are poisoned so a dangling
//     pointer into a dead process's frames faults loudly, and every
//     stack's canary band stays poisoned while the stack is in use.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ETHERGRID_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ETHERGRID_TEST_ASAN 1
#endif
#endif
#ifdef ETHERGRID_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace ethergrid::sim {
namespace {

// Killing a process before the kernel ever dispatches it must mirror the
// killed arm exactly -- finished, kKilled result, join observes it -- while
// never running the body and never materializing a stack.
TEST(LazyLifecycleTest, KillBeforeFirstDispatchNeverMaterializes) {
  Kernel k;
  bool ran = false;
  auto p = k.spawn("victim", [&](Context&) { ran = true; });
  k.kill(*p, "pre-dispatch kill");
  k.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(p->result().code(), StatusCode::kKilled);
  // No fiber ever existed, so no stack was ever created or pooled.
  EXPECT_EQ(k.pooled_stack_count(), 0u);
}

// Control for the pin above: a process that DOES run leaves its recycled
// stack in the pool, so the zero-count assertion is not vacuous.
TEST(LazyLifecycleTest, DispatchedProcessPoolsItsStack) {
  Kernel k;
  auto p = k.spawn("worker", [](Context& ctx) { ctx.sleep(sec(1)); });
  k.run();
  EXPECT_TRUE(p->finished());
  EXPECT_EQ(k.pooled_stack_count(), 1u);
}

// A sibling killing the victim in the same instant it became runnable:
// the kill lands between spawn and first dispatch, the canonical race the
// mc kill_vs_first_dispatch scenario explores exhaustively.
TEST(LazyLifecycleTest, SameInstantKillBeatsFirstDispatch) {
  Kernel k;
  bool ran = false;
  ProcessHandle victim;
  k.spawn("killer", [&](Context& ctx) {
    victim = ctx.spawn("victim", [&](Context&) { ran = true; });
    ctx.kill(victim, "raced");
  });
  k.run();
  EXPECT_FALSE(ran);
  ASSERT_TRUE(victim);
  EXPECT_TRUE(victim->finished());
  EXPECT_EQ(victim->result().code(), StatusCode::kKilled);
}

// Join on a killed-at-birth process must complete like any other join.
TEST(LazyLifecycleTest, JoinOnKilledAtBirthCompletes) {
  Kernel k;
  auto p = k.spawn("victim", [](Context& ctx) { ctx.sleep(sec(5)); });
  k.kill(*p);
  bool joined = false;
  k.spawn("joiner", [&](Context& ctx) {
    ctx.join(p);
    joined = true;
  });
  k.run();
  EXPECT_TRUE(joined);
}

// Spawn after shutdown: the kernel accepts no further work; the process
// is born pre-killed and finishes kKilled on the next drain, body never
// run -- it cannot wedge a drained kernel.
TEST(LazyLifecycleTest, SpawnAfterShutdownIsBornKilled) {
  Kernel k;
  bool late_ran = false;
  k.spawn("sleeper", [](Context& ctx) { ctx.sleep(sec(100)); });
  k.run_for(sec(1));
  k.shutdown();
  auto late = k.spawn("late", [&](Context&) { late_ran = true; });
  k.run();
  EXPECT_TRUE(late->finished());
  EXPECT_EQ(late->result().code(), StatusCode::kKilled);
  EXPECT_FALSE(late_ran);
}

// Spawn DURING shutdown: a process whose unwind path spawns (scope guards
// that fire replacement work are common in the grid substrates) must get a
// born-killed child, not resurrect work while the kernel drains.
TEST(LazyLifecycleTest, SpawnDuringShutdownUnwindIsBornKilled) {
  Kernel k;
  ProcessHandle child;
  bool child_ran = false;
  k.spawn("parent", [&](Context& ctx) {
    struct SpawnOnUnwind {
      Context& ctx;
      ProcessHandle& out;
      bool& ran;
      ~SpawnOnUnwind() {
        out = ctx.spawn("unwind-child", [this](Context&) { ran = true; });
      }
    } guard{ctx, child, child_ran};
    ctx.sleep(sec(100));
  });
  k.run_for(sec(1));
  k.shutdown();
  ASSERT_TRUE(child);
  EXPECT_TRUE(child->finished());
  EXPECT_EQ(child->result().code(), StatusCode::kKilled);
  EXPECT_FALSE(child_ran);
}

// The pools must plateau: wave two of N processes reuses wave one's
// process objects and stacks instead of growing the freelists.
TEST(LazyLifecycleTest, PoolsAreReusedAcrossWaves) {
  constexpr int kWave = 32;
  Kernel k;
  auto run_wave = [&] {
    for (int i = 0; i < kWave; ++i) {
      // Handle dropped immediately: the kernel's reference is the last
      // one at finish, so the process object is eligible for the pool.
      k.spawn("w" + std::to_string(i), [](Context& ctx) { ctx.sleep(sec(1)); });
    }
    k.run();
  };
  run_wave();
  const std::size_t procs_after_one = k.pooled_process_count();
  const std::size_t stacks_after_one = k.pooled_stack_count();
  EXPECT_EQ(procs_after_one, std::size_t(kWave));
  EXPECT_EQ(stacks_after_one, std::size_t(kWave));
  run_wave();
  EXPECT_EQ(k.pooled_process_count(), procs_after_one);
  EXPECT_EQ(k.pooled_stack_count(), stacks_after_one);
}

// A recycled process object must behave like a fresh one: results, names,
// and bodies of the new incarnation, with no state leaking from the old.
TEST(LazyLifecycleTest, RecycledProcessRunsCleanly) {
  Kernel k;
  k.spawn("first", [](Context& ctx) { ctx.sleep(sec(1)); });
  k.run();
  ASSERT_GE(k.pooled_process_count(), 1u);
  std::vector<std::string> trace;
  auto p = k.spawn("second", [&](Context& ctx) {
    ctx.sleep(sec(2));
    trace.push_back("second@" + std::to_string(
        std::chrono::duration_cast<std::chrono::seconds>(ctx.now() - kEpoch)
            .count()));
  });
  k.run();
  EXPECT_TRUE(p->finished());
  EXPECT_TRUE(p->result().ok());
  EXPECT_EQ(p->name(), "second");
  EXPECT_EQ(trace, (std::vector<std::string>{"second@3"}));
}

// A holder keeping the handle alive past finish blocks pooling (the pool
// gate requires the kernel to hold the last reference); dropping it does
// NOT retroactively pool -- the object was retired unpooled.
TEST(LazyLifecycleTest, HeldHandleKeepsProcessOutOfPool) {
  Kernel k;
  auto held = k.spawn("held", [](Context& ctx) { ctx.sleep(sec(1)); });
  k.run();
  EXPECT_TRUE(held->finished());
  EXPECT_EQ(k.pooled_process_count(), 0u);
  EXPECT_EQ(k.pooled_stack_count(), 1u);  // stacks pool independently
}

#ifdef ETHERGRID_TEST_ASAN
// Pooled stacks are poisoned wholesale: an address that was a live frame
// while the fiber ran must read as poisoned once the stack is back in the
// pool, so use-after-return across the recycle boundary traps.
TEST(LazyLifecycleTest, PooledStackIsPoisonedUnderAsan) {
  Kernel k;
  volatile char* frame_addr = nullptr;
  k.spawn("frame", [&](Context& ctx) {
    volatile char local = 42;
    frame_addr = &local;
    ctx.sleep(sec(1));
  });
  k.run();
  ASSERT_EQ(k.pooled_stack_count(), 1u);
  ASSERT_NE(frame_addr, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(
      const_cast<const char*>(frame_addr)));
}

// The canary band (a stack's lowest 64 bytes) is poisoned from carving on
// and stays poisoned when a pooled stack is handed out again, while the
// bytes above it are usable.  Stacks are page-aligned and the body's frame
// lies in the top page, so rounding it up to a page finds the stack's top.
TEST(LazyLifecycleTest, CanaryBandStaysPoisonedUnderAsan) {
  constexpr std::uintptr_t kStackBytes = 64 << 10;
  KernelOptions opt;
  opt.fiber_stack_bytes = kStackBytes;
  Kernel k(1, opt);
  int probes = 0;
  const auto probe = [&](Context&) {
    const auto page = std::uintptr_t(::sysconf(_SC_PAGESIZE));
    const auto frame =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    const auto* lo = reinterpret_cast<const char*>(
        (frame + page - 1) / page * page - kStackBytes);
    EXPECT_TRUE(__asan_address_is_poisoned(lo));
    EXPECT_TRUE(__asan_address_is_poisoned(lo + 63));
    EXPECT_EQ(__asan_region_is_poisoned(const_cast<char*>(lo) + 64, 64),
              nullptr);
    ++probes;
  };
  k.spawn("fresh", probe);
  k.run();
  ASSERT_EQ(k.pooled_stack_count(), 1u);
  k.spawn("pooled", probe);
  k.run();
  EXPECT_EQ(k.pooled_stack_count(), 1u);  // the same stack, reused
  EXPECT_EQ(probes, 2);
}
#endif

}  // namespace
}  // namespace ethergrid::sim
