// Kernel-level chaos: kill storms, self-kills, and spawns racing shutdown.
//
// The scenario chaos matrix (chaos_test.cpp) stresses the grid layers;
// this file aims the same adversarial style at the kernel's lifecycle
// edges, which the stale-wakeup accounting fix made contractual:
//
//  - killing the *currently running* process invalidates its wake token
//    like any other kill (it unwinds at its next wait primitive, and any
//    entry it scheduled before the kill is accounted stale, not live);
//  - spawns issued while the kernel is shutting down are born killed and
//    leave no live queue entries behind;
//  - a randomized kill storm replays identically for a fixed seed, and
//    matches a pinned transcript.
//
// Debug builds audit the exact stale/live counts after every queue
// operation, so any accounting drift these sequences provoke aborts the
// test rather than silently wrapping a counter.  Release builds get the
// same check through Kernel::verify_queue_accounting() -- the one code
// path shared with the model checker's queue-accounting invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace ethergrid::sim {
namespace {

// A storm of workers that sleep, pulse, self-kill, and murder each other
// on a deterministic schedule.  The trace of every observable step must be
// identical run-to-run.
std::vector<std::string> run_kill_storm(std::uint64_t seed) {
  Kernel kernel(seed);
  std::vector<std::string> trace;
  std::vector<ProcessHandle> workers;
  Event churn(kernel);
  for (int i = 0; i < 8; ++i) {
    workers.push_back(
        kernel.spawn("w" + std::to_string(i), [&, i](Context& ctx) {
          try {
            for (int step = 0;; ++step) {
              std::ostringstream line;
              line << "w" << i << "@" << ctx.now().time_since_epoch().count()
                   << "#" << step;
              trace.push_back(line.str());
              switch (ctx.rng().next_u64() % 5) {
                case 0:
                  ctx.sleep(usec(std::int64_t(ctx.rng().next_u64() % 3000)));
                  break;
                case 1:
                  // Long sleep: if a killer hits us here the +10min entry
                  // must die with us (stale), not outlive the process.
                  ctx.sleep(minutes(10));
                  break;
                case 2:
                  churn.pulse();
                  ctx.sleep(usec(1));
                  break;
                case 3:
                  if (!workers.empty() && step > 4) {
                    // Murder a deterministic victim -- possibly ourselves:
                    // kill-of-current must behave like any other kill.
                    Process& victim =
                        *workers[ctx.rng().next_u64() % workers.size()];
                    ctx.kill(victim, "storm");
                  }
                  ctx.yield();
                  break;
                default:
                  (void)ctx.wait_for(
                      churn, usec(std::int64_t(ctx.rng().next_u64() % 2000)));
                  break;
              }
            }
          } catch (const Interrupted&) {
            std::ostringstream line;
            line << "w" << i << " killed@"
                 << ctx.now().time_since_epoch().count();
            trace.push_back(line.str());
            throw;
          }
        }));
  }
  // A storm where every worker can die leaves survivors blocked forever on
  // the churn event; bound the run and then tear everything down.
  kernel.run_until(TimePoint(sec(30)));
  // The same accounting check the model checker runs after every
  // transition; here it audits the storm's end state even in release
  // builds, where the per-operation debug audit is compiled out.
  EXPECT_TRUE(kernel.verify_queue_accounting().ok())
      << kernel.verify_queue_accounting().message();
  kernel.shutdown();
  EXPECT_EQ(kernel.live_process_count(), 0u);
  EXPECT_EQ(kernel.queue_depth(), 0u);
  EXPECT_TRUE(kernel.verify_queue_accounting().ok())
      << kernel.verify_queue_accounting().message();
  return trace;
}

TEST(KernelChaosTest, KillStormReplaysIdentically) {
  const auto first = run_kill_storm(42);
  const auto second = run_kill_storm(42);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "diverges at step " << i;
  }
  // At least one kill must actually have landed for the pin to mean much.
  bool saw_kill = false;
  for (const std::string& line : first) {
    if (line.find("killed@") != std::string::npos) saw_kill = true;
  }
  EXPECT_TRUE(saw_kill);
}

// Pinned transcript of the seed-7 storm.  Recorded when the kernel could
// still run on a binary heap, from a run where the heap and the timer wheel
// produced this exact transcript, so a wheel change that reorders kernel
// events fails here.
TEST(KernelChaos, KillStormMatchesPinnedTrace) {
  const auto trace = run_kill_storm(7);
  std::string joined;
  for (const std::string& line : trace) joined += line + "\n";
  EXPECT_EQ(trace.size(), 43u);
  EXPECT_EQ(fnv1a64(joined), 0x3e429a90c335b61cull);
}

// Spawns issued while the kernel is shutting down: the unwinding bodies
// below respawn replacements from their Interrupted handlers.  Those
// children must be born killed, unwind without running their bodies, and
// leave the queue truly empty -- no live-counted entries for processes
// that never ran.
TEST(KernelChaosTest, SpawnDuringShutdownIsBornKilledAndLeakFree) {
  Kernel kernel(1);
  int respawned = 0;
  int respawn_bodies_ran = 0;
  std::function<void(Context&)> body = [&](Context& ctx) {
    try {
      ctx.sleep(hours(24));
    } catch (const Interrupted&) {
      // Unwinding under shutdown: this spawn must be inert.
      ++respawned;
      ctx.spawn("phoenix", [&](Context&) { ++respawn_bodies_ran; });
      throw;
    }
  };
  for (int i = 0; i < 16; ++i) {
    kernel.spawn("doomed" + std::to_string(i), body);
  }
  kernel.run_until(TimePoint(sec(1)));
  EXPECT_EQ(kernel.live_process_count(), 16u);
  EXPECT_TRUE(kernel.verify_queue_accounting().ok())
      << kernel.verify_queue_accounting().message();
  kernel.shutdown();
  EXPECT_EQ(respawned, 16);
  EXPECT_EQ(respawn_bodies_ran, 0);
  EXPECT_EQ(kernel.live_process_count(), 0u);
  EXPECT_EQ(kernel.queue_depth(), 0u);
  // And a spawn after shutdown completes is equally inert.
  auto late = kernel.spawn("late", [&](Context&) { ++respawn_bodies_ran; });
  kernel.run();
  EXPECT_EQ(respawn_bodies_ran, 0);
  EXPECT_TRUE(late->finished());
  EXPECT_EQ(kernel.queue_depth(), 0u);
}

}  // namespace
}  // namespace ethergrid::sim
