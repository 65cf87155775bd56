// ShardedKernel + ShardMailbox: window-boundary semantics, canonical
// delivery order, per-shard clocks (the PR 5 fast paths must be
// shard-aware), determinism across worker-thread counts, and the stack
// arenas that make 10^5 concurrent fibers possible.
#include "sim/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/kernel.hpp"
#include "sim/mailbox.hpp"
#include "util/time.hpp"

#if defined(__SANITIZE_THREAD__)
#define ETHERGRID_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ETHERGRID_TEST_TSAN 1
#endif
#endif

namespace ethergrid::sim {
namespace {

TEST(ShardMailbox, DrainsInCanonicalOrder) {
  ShardMailbox box(3);
  auto msg = [](TimePoint deliver, std::uint64_t site) {
    ShardMessage m;
    m.deliver = deliver;
    m.src_site = site;
    m.dst_shard = 0;
    m.body = [](Context&) {};
    return m;
  };
  // Posted out of order across rows; ties on deliver broken by site, ties
  // on (deliver, site) by posting order.
  box.post(2, msg(kEpoch + msec(5), 20));
  box.post(0, msg(kEpoch + msec(1), 7));
  box.post(1, msg(kEpoch + msec(5), 9));
  box.post(0, msg(kEpoch + msec(5), 7));
  box.post(0, msg(kEpoch + msec(5), 7));
  box.post(1, msg(kEpoch + msec(2), 30));

  std::vector<ShardMessage> batch = box.drain();
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch[0].deliver, kEpoch + msec(1));
  EXPECT_EQ(batch[1].deliver, kEpoch + msec(2));
  // The four t=5ms messages: site 7 (seq order), then 9, then 20.
  EXPECT_EQ(batch[2].src_site, 7u);
  EXPECT_EQ(batch[3].src_site, 7u);
  EXPECT_LT(batch[2].seq, batch[3].seq);
  EXPECT_EQ(batch[4].src_site, 9u);
  EXPECT_EQ(batch[5].src_site, 20u);
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.posted_total(), 6u);
}

TEST(KernelNextLiveEventTime, ExactAndSkipsStale) {
  Kernel kernel(1);
  EXPECT_EQ(kernel.next_live_event_time(), TimePoint::max());
  ProcessHandle early = kernel.spawn("early", [](Context& ctx) {
    ctx.sleep(msec(10));
  });
  kernel.spawn("late", [](Context& ctx) { ctx.sleep(msec(500)); });
  // Both spawn wakes are pending at t=0.
  EXPECT_EQ(kernel.next_live_event_time(), kEpoch);
  kernel.run_until(kEpoch + usec(1));  // deliver the spawn wakes
  EXPECT_EQ(kernel.next_live_event_time(), kEpoch + msec(10));
  kernel.kill(*early, "test");
  // The kill wake is immediate; after it drains, only "late" remains and
  // early's 10ms entry is stale.
  kernel.run_until(kEpoch + usec(2));
  EXPECT_EQ(kernel.next_live_event_time(), kEpoch + msec(500));
  kernel.shutdown();
}

TEST(ShardedKernel, CrossShardDeliveryHonorsLatency) {
  ShardedKernelOptions opt;
  opt.shards = 2;
  opt.lookahead = msec(10);
  ShardedKernel sk(1, opt);
  TimePoint delivered = TimePoint::max();
  sk.spawn(0, "sender", [&sk](Context& ctx) {
    ctx.sleep(msec(3));
    // Posted at t=3ms with latency 25ms: must run on shard 1 at exactly
    // t=28ms, unaffected by window boundaries in between.
    sk.post(0, /*src_site=*/1, /*dst_shard=*/1, msec(25), "rpc",
            [](Context&) {});
  });
  sk.spawn(1, "probe", [&delivered](Context& ctx) {
    ctx.sleep(msec(100));
    (void)ctx;
  });
  // Observe the delivery time via a second message whose body records it.
  sk.spawn(0, "sender2", [&sk, &delivered](Context& ctx) {
    ctx.sleep(msec(3));
    sk.post(0, 1, 1, msec(25), "rpc2",
            [&delivered](Context& ctx2) { delivered = ctx2.now(); });
  });
  sk.run();
  EXPECT_EQ(delivered, kEpoch + msec(28));
  EXPECT_GT(sk.messages_delivered(), 0u);
  sk.shutdown();
}

TEST(ShardedKernel, LatencyFlooredToLookahead) {
  ShardedKernelOptions opt;
  opt.shards = 2;
  opt.lookahead = msec(50);
  ShardedKernel sk(1, opt);
  TimePoint delivered{};
  sk.spawn(0, "sender", [&](Context& ctx) {
    ctx.sleep(msec(1));
    sk.post(0, 1, 1, usec(0), "rpc",
            [&delivered](Context& ctx2) { delivered = ctx2.now(); });
  });
  sk.run();
  EXPECT_EQ(delivered, kEpoch + msec(51));
  sk.shutdown();
}

TEST(ShardedKernel, SameShardPostTakesTheBatchedPath) {
  ShardedKernelOptions opt;
  opt.shards = 1;
  opt.lookahead = msec(10);
  ShardedKernel sk(1, opt);
  TimePoint delivered{};
  sk.spawn(0, "sender", [&](Context& ctx) {
    ctx.sleep(msec(2));
    sk.post(0, 1, 0, msec(10), "self",
            [&delivered](Context& ctx2) { delivered = ctx2.now(); });
  });
  sk.run();
  EXPECT_EQ(delivered, kEpoch + msec(12));
  sk.shutdown();
}

// Clocks are per shard: a process's Context::now() reads its own kernel's
// clock, and mid-window the other shard's clock is observably elsewhere.
// Any process-global clock or current-context cache would make the two
// reads alias.
TEST(ShardedKernel, ClockReadsAreShardLocalInsideAWindow) {
  ShardedKernelOptions opt;
  opt.shards = 2;
  opt.threads = 1;  // deterministic in-window order: shard 0 runs first
  opt.lookahead = sec(10);  // one window covers the whole run
  ShardedKernel sk(1, opt);
  std::vector<TimePoint> own_reads;
  TimePoint other_clock_during_shard0 = TimePoint::max();
  sk.spawn(0, "walker0", [&](Context& ctx) {
    ctx.sleep(msec(500));
    own_reads.push_back(ctx.now());
    // Shard 1 has not run this window yet (threads=1 runs shards in
    // order), so its clock must still be at the window start -- NOT at
    // this shard's 500ms.
    other_clock_during_shard0 = sk.shard(1).now();
    ctx.sleep(msec(500));
    own_reads.push_back(ctx.now());
  });
  std::vector<TimePoint> shard1_reads;
  sk.spawn(1, "walker1", [&](Context& ctx) {
    ctx.sleep(msec(250));
    shard1_reads.push_back(ctx.now());
    ctx.sleep(msec(750));
    shard1_reads.push_back(ctx.now());
  });
  sk.run();
  ASSERT_EQ(own_reads.size(), 2u);
  EXPECT_EQ(own_reads[0], kEpoch + msec(500));
  EXPECT_EQ(own_reads[1], kEpoch + sec(1));
  EXPECT_EQ(other_clock_during_shard0, kEpoch);  // shard 1 untouched so far
  ASSERT_EQ(shard1_reads.size(), 2u);
  EXPECT_EQ(shard1_reads[0], kEpoch + msec(250));
  EXPECT_EQ(shard1_reads[1], kEpoch + sec(1));
  sk.shutdown();
}

// One world, built twice: shards=4/threads=1 vs shards=4/threads=4 must
// produce identical per-shard event counts, delivery timelines, and final
// digests.  (The full-stack version of this -- stats + byte-identical
// fault audits over the grid substrates -- lives in
// backend_equivalence_test.cpp.)
struct PingWorld {
  explicit PingWorld(ShardedKernel& sk) : timelines(sk.shard_count()) {}
  std::vector<std::vector<std::pair<std::string, TimePoint>>> timelines;
};

void build_ping_world(ShardedKernel& sk, PingWorld& world) {
  // Every shard posts to its right neighbor a few times; bodies record
  // (name, delivery time) into shard-local timelines.
  for (std::size_t s = 0; s < sk.shard_count(); ++s) {
    const std::size_t dst = (s + 1) % sk.shard_count();
    sk.spawn(s, "pinger" + std::to_string(s),
             [&sk, &world, s, dst](Context& ctx) {
               for (int round = 0; round < 5; ++round) {
                 ctx.sleep(msec(7 + std::int64_t(s)));
                 const std::string tag =
                     "ping" + std::to_string(s) + "." + std::to_string(round);
                 sk.post(s, /*src_site=*/s, dst, msec(20), tag,
                         [&world, dst, tag](Context& ctx2) {
                           world.timelines[dst].emplace_back(tag, ctx2.now());
                         });
               }
             });
  }
}

// Runs the ping world on `shards` shards with `threads` threads: `slices`
// run_until calls of one lookahead each, then run().  Returns everything a
// thread count must not change.
auto run_ping_world(std::size_t threads, int slices, std::size_t shards = 4) {
  ShardedKernelOptions opt;
  opt.shards = shards;
  opt.threads = threads;
  opt.lookahead = msec(5);
  auto sk = std::make_unique<ShardedKernel>(42, opt);
  PingWorld world(*sk);
  build_ping_world(*sk, world);
  for (int i = 1; i <= slices; ++i) sk->run_until(kEpoch + msec(5 * i));
  sk->run();
  std::vector<std::uint64_t> events;
  std::vector<std::uint64_t> digests;
  for (std::size_t s = 0; s < sk->shard_count(); ++s) {
    events.push_back(sk->shard(s).events_processed());
    digests.push_back(sk->shard(s).state_digest());
  }
  const std::uint64_t windows = sk->windows_run();
  sk->shutdown();
  EXPECT_EQ(sk->live_process_count(), 0u);
  return std::make_tuple(world.timelines, events, digests, windows);
}

// threads=3 on 4 shards is the uneven case: the calling thread (worker 0)
// owns shards 0 and 3, the two pool workers one shard each.
TEST(ShardedKernel, ByteIdenticalAcrossWorkerThreadCounts) {
  const auto serial = run_ping_world(1, 0);
  for (std::size_t threads : {2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = run_ping_world(threads, 0);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
    EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel));
  }
}

// Stepped: ten run_until slices, then run().  Between calls the pool
// workers sit parked at the barrier while the caller is back in user code.
TEST(ShardedKernel, SteppedRunsByteIdenticalAcrossWorkerThreadCounts) {
  const auto serial = run_ping_world(1, 10);
  // Slicing changes no delivery: the timelines match the one-call run.
  EXPECT_EQ(std::get<0>(serial), std::get<0>(run_ping_world(1, 0)));
  for (std::size_t threads : {2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto parallel = run_ping_world(threads, 10);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
    EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel));
  }
}

// Eight threads, more than a 4-CPU machine has cores: a waiting thread can
// spend its whole poll budget before the straggler it shares a core with
// arrives, so the barrier's park path runs beside the poll path.
TEST(ShardedKernel, OversubscribedThreadsByteIdenticalAndShutDownCleanly) {
  const auto serial = run_ping_world(1, 10, 8);
  const auto parallel = run_ping_world(8, 10, 8);
  EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
  EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
  EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
  EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel));
}

// Parks are counted per waiting arrival: none without pool workers, and
// with them at most threads - 1 per phase.  A run_until call closes at
// most three phases besides its windows (the request, the scan and the
// advance), and shutdown two.
TEST(ShardedKernel, BarrierParksAtMostOncePerWaitingArrival) {
  for (std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ShardedKernelOptions opt;
    opt.shards = 4;
    opt.threads = threads;
    opt.lookahead = msec(5);
    ShardedKernel sk(42, opt);
    PingWorld world(sk);
    build_ping_world(sk, world);
    // The pool workers wait for the first call far past the budget and
    // park; that wait is the caller's, not the barrier's.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(sk.barrier_parks(), 0u);
    const int slices = 10;
    for (int i = 1; i <= slices; ++i) sk.run_until(kEpoch + msec(5 * i));
    sk.run();
    sk.shutdown();
    const std::uint64_t phases = sk.windows_run() + 3 * (slices + 1) + 2;
    if (threads == 1) {
      EXPECT_EQ(sk.barrier_parks(), 0u);
    } else {
      EXPECT_LE(sk.barrier_parks(), (threads - 1) * phases);
    }
  }
}

TEST(ShardedKernel, RunUntilReportsPendingMailAndEvents) {
  ShardedKernelOptions opt;
  opt.shards = 2;
  opt.lookahead = msec(10);
  ShardedKernel sk(1, opt);
  bool delivered = false;
  sk.spawn(0, "sender", [&](Context& ctx) {
    ctx.sleep(msec(95));
    sk.post(0, 1, 1, msec(10), "late",
            [&delivered](Context&) { delivered = true; });
  });
  // The message posts at 95ms and delivers at 105ms: beyond this limit, so
  // run_until must report pending work and hold the message.
  EXPECT_TRUE(sk.run_until(kEpoch + msec(100)));
  EXPECT_FALSE(delivered);
  EXPECT_EQ(sk.now(), kEpoch + msec(100));
  EXPECT_FALSE(sk.run_until(kEpoch + msec(200)));
  EXPECT_TRUE(delivered);
  sk.shutdown();
}

TEST(ShardedKernel, ShutdownDropsUndeliveredMessages) {
  ShardedKernelOptions opt;
  opt.shards = 2;
  ShardedKernel sk(1, opt);
  bool ran = false;
  sk.post(0, 1, 1, msec(5), "never", [&ran](Context&) { ran = true; });
  sk.shutdown();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sk.live_process_count(), 0u);
}

// Spawns a thrower on every shard; those in `throwing` raise "boom shard
// <s>" in the same window.  The first by shard index must surface whatever
// the worker timing, and the world must still shut down.
void expect_first_shard_error(std::size_t threads,
                              std::vector<std::size_t> throwing,
                              const char* expected) {
  ShardedKernelOptions opt;
  opt.shards = 4;
  opt.threads = threads;
  ShardedKernel sk(1, opt);
  for (std::size_t s = 0; s < 4; ++s) {
    const bool raise =
        std::find(throwing.begin(), throwing.end(), s) != throwing.end();
    sk.spawn(s, "thrower" + std::to_string(s), [s, raise](Context& ctx) {
      ctx.sleep(msec(1));
      if (raise) throw std::runtime_error("boom shard " + std::to_string(s));
    });
  }
  try {
    sk.run();
    FAIL() << "expected a shard exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), expected);
  }
  sk.shutdown();
  EXPECT_EQ(sk.live_process_count(), 0u);
}

TEST(ShardedKernel, ShardExceptionPropagatesDeterministically) {
  // Shards 2 and 3 belong to two different pool workers.
  expect_first_shard_error(4, {2, 3}, "boom shard 2");
  // Shard 0 is the calling thread's own; shard 3 is a pool worker's.
  expect_first_shard_error(4, {0, 3}, "boom shard 0");
  // threads=3: the caller runs both shard 0 and shard 3.
  expect_first_shard_error(3, {0, 3}, "boom shard 0");
}

// `threads` counts the calling thread: it is worker 0, so N threads start
// N - 1 OS threads, and threads=1 starts none.
TEST(ShardedKernel, ThreadCountIncludesTheCaller) {
  auto os_threads = [] {
    std::size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  // ThreadSanitizer starts a helper thread at the process's first thread
  // creation.  Create one first, parked until the end, so that the helper
  // is already running when `before` is counted.
  std::promise<void> done;
  std::thread parked([&done] { done.get_future().wait(); });
  // threads=4 last: a joined worker's task can outlive its join briefly.
  for (std::size_t threads : {1, 4}) {
    const std::size_t before = os_threads();
    ShardedKernelOptions opt;
    opt.shards = 4;
    opt.threads = threads;
    ShardedKernel sk(1, opt);
    EXPECT_EQ(sk.thread_count(), threads);
    EXPECT_EQ(os_threads() - before, threads - 1);
  }
  done.set_value();
  parked.join();
}

// Barrier lifetime: many short-lived 4-thread kernels, each torn down at a
// different point (never run, mid-run, drained, explicitly shut down).  A
// worker left parked or a lost wakeup hangs here; ctest gives this test
// its own timeout (tests/CMakeLists.txt).
TEST(ShardedKernel, BuildRunDestroyManyThreadedKernels) {
  std::uint64_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    ShardedKernelOptions opt;
    opt.shards = 4;
    opt.threads = 4;
    opt.lookahead = msec(5);
    ShardedKernel sk(std::uint64_t(i), opt);
    for (std::size_t s = 0; s < 4; ++s) {
      sk.spawn(s, "p" + std::to_string(s), [&sk, s](Context& ctx) {
        ctx.sleep(msec(3));
        sk.post(s, s, (s + 1) % 4, msec(5), "m", [](Context&) {});
      });
    }
    switch (i % 4) {
      case 0:
        break;  // destroyed without ever running
      case 1:
        EXPECT_TRUE(sk.run_until(kEpoch + msec(4)));
        break;
      case 2:
        sk.run();
        break;
      default:
        sk.run();
        sk.shutdown();
        break;
    }
    delivered += sk.messages_delivered();
  }
  // Every kernel that ran past 3ms flushed its 4 posts to their shards.
  EXPECT_EQ(delivered, 150u * 4u);
}

std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Fiber stacks come from per-kernel arenas of 64 stacks, so 40,000 live
// fibers cost ~625 mappings.  Two mappings per guard-paged stack used to
// hit vm.max_map_count (65,530) between 30,000 and 34,000 live fibers.
TEST(FiberStack, FortyThousandLiveFibers) {
#ifdef ETHERGRID_TEST_TSAN
  GTEST_SKIP() << "ThreadSanitizer caps live fiber contexts at 8128, at "
                  "~0.8 MB of its own state each";
#endif
  constexpr std::size_t kFibers = 40000;
  KernelOptions opt;
  opt.fiber_stack_bytes = 64 << 10;  // keeps the arenas small under ASan
  Kernel kernel(7, opt);
  std::size_t done = 0;
  const auto wave = [&](const std::string& prefix) {
    for (std::size_t i = 0; i < kFibers; ++i) {
      kernel.spawn(prefix + std::to_string(i), [&done, i](Context& ctx) {
        ctx.sleep(sec(1) + usec(i % 17));
        ++done;
      });
    }
    // Every fiber is materialized and asleep at the peak.
    kernel.run_for(msec(500));
    EXPECT_EQ(kernel.live_process_count(), kFibers);
  };
  const std::size_t maps_before = mapping_count();
  wave("p");
  EXPECT_LT(mapping_count(), maps_before + 1500);
  kernel.run();
  EXPECT_EQ(done, kFibers);
  const std::size_t pooled = kernel.pooled_stack_count();
  EXPECT_EQ(pooled, kFibers);
  // A second wave runs on the pooled stacks: no stack is carved anew.
  wave("q");
  kernel.run();
  EXPECT_EQ(done, 2 * kFibers);
  EXPECT_EQ(kernel.pooled_stack_count(), pooled);
}

}  // namespace
}  // namespace ethergrid::sim
