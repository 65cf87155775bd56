#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace ethergrid::sim {
namespace {

// N equal flows of equal work over capacity C: every flow gets C/N, so all
// finish together at N * work / C.
TEST(FluidTest, EqualFlowsShareEqually) {
  for (int n : {1, 2, 4, 8}) {
    Kernel k;
    FluidResource link(k, 100.0);  // 100 units/s
    std::vector<TimePoint> done(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      k.spawn("f" + std::to_string(i), [&, i](Context& ctx) {
        ASSERT_TRUE(link.transfer(ctx, 1000.0).ok());
        done[std::size_t(i)] = ctx.now();
      });
    }
    k.run();
    const TimePoint expected = kEpoch + sec(n * 1000.0 / 100.0);
    for (int i = 0; i < n; ++i) {
      // eta rounds up to whole microseconds; allow one tick per reshare.
      EXPECT_GE(done[std::size_t(i)], expected) << "n=" << n << " i=" << i;
      EXPECT_LE(done[std::size_t(i)], expected + msec(1))
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(link.transfers_completed(), n);
    EXPECT_DOUBLE_EQ(link.units_moved(), n * 1000.0);
    k.shutdown();
  }
}

// A flow of weight 3 against a flow of weight 1 drains three units for
// every one of its rival's.
TEST(FluidTest, WeightedSharesSplitProportionally) {
  Kernel k;
  FluidResource link(k, 100.0);
  TimePoint heavy_done{};
  TimePoint light_done{};
  k.spawn("heavy", [&](Context& ctx) {
    FluidFlowOptions options;
    options.weight = 3.0;
    ASSERT_TRUE(link.transfer(ctx, 900.0, options).ok());
    heavy_done = ctx.now();
  });
  k.spawn("light", [&](Context& ctx) {
    ASSERT_TRUE(link.transfer(ctx, 900.0).ok());
    light_done = ctx.now();
  });
  k.run();
  // Phase 1: heavy at 75/s, light at 25/s; heavy's 900 drain in 12 s during
  // which light moves 300.  Phase 2: light alone at 100/s for 6 s more.
  EXPECT_GE(heavy_done, kEpoch + sec(12));
  EXPECT_LE(heavy_done, kEpoch + sec(12) + msec(1));
  EXPECT_GE(light_done, kEpoch + sec(18));
  EXPECT_LE(light_done, kEpoch + sec(18) + msec(1));
  k.shutdown();
}

// A rate cap freezes a flow below its proportional share and the spare
// capacity spills to the uncapped flow (max-min progressive filling).
TEST(FluidTest, RateCapSpillsToUncappedFlows) {
  Kernel k;
  FluidResource link(k, 100.0);
  TimePoint capped_done{};
  TimePoint open_done{};
  k.spawn("capped", [&](Context& ctx) {
    FluidFlowOptions options;
    options.rate_cap = 20.0;
    ASSERT_TRUE(link.transfer(ctx, 200.0, options).ok());
    capped_done = ctx.now();
  });
  k.spawn("open", [&](Context& ctx) {
    ASSERT_TRUE(link.transfer(ctx, 800.0).ok());
    open_done = ctx.now();
  });
  k.run();
  // Both run 10 s: capped at 20/s (200 done), open at 80/s (800 done).
  EXPECT_GE(capped_done, kEpoch + sec(10));
  EXPECT_LE(capped_done, kEpoch + sec(10) + msec(1));
  EXPECT_GE(open_done, kEpoch + sec(10));
  EXPECT_LE(open_done, kEpoch + sec(10) + msec(1));
  k.shutdown();
}

// Joins and leaves re-share correctly: a late joiner halves the incumbent's
// rate, and its departure restores the full rate.
TEST(FluidTest, JoinAndLeaveReshare) {
  Kernel k;
  FluidResource link(k, 100.0);
  TimePoint first_done{};
  TimePoint second_done{};
  k.spawn("incumbent", [&](Context& ctx) {
    ASSERT_TRUE(link.transfer(ctx, 1000.0).ok());
    first_done = ctx.now();
  });
  k.spawn("joiner", [&](Context& ctx) {
    ctx.sleep(sec(4));  // incumbent has moved 400 alone
    ASSERT_TRUE(link.transfer(ctx, 500.0).ok());
    second_done = ctx.now();
  });
  k.run();
  // t=4: incumbent has 600 left, joiner 500, both at 50/s.  The joiner
  // finishes first at t=14; the incumbent then runs alone at 100/s with
  // 100 left and finishes at t=15.
  EXPECT_GE(second_done, kEpoch + sec(14));
  EXPECT_LE(second_done, kEpoch + sec(14) + msec(1));
  EXPECT_GE(first_done, kEpoch + sec(15));
  EXPECT_LE(first_done, kEpoch + sec(15) + msec(1));
  EXPECT_GE(link.reshares(), 3);  // join, leave, leave
  k.shutdown();
}

// instantaneous_share quotes the rate a hypothetical flow would get
// without perturbing the real flows.
TEST(FluidTest, InstantaneousShareQuotesHypotheticalRate) {
  Kernel k;
  FluidResource link(k, 100.0);
  double share_empty = -1;
  double share_busy = -1;
  k.spawn("flow", [&](Context& ctx) { (void)link.transfer(ctx, 1000.0); });
  k.spawn("probe", [&](Context& ctx) {
    share_busy = link.instantaneous_share();
    ctx.sleep(sec(60));  // flow done at t=10
    share_empty = link.instantaneous_share();
  });
  k.run();
  EXPECT_DOUBLE_EQ(share_busy, 50.0);   // would split 100 two ways
  EXPECT_DOUBLE_EQ(share_empty, 100.0); // link idle
  k.shutdown();
}

// Kills mid-transfer abort the flow, free its share, and count it.
TEST(FluidTest, KilledFlowLeavesAndReshares) {
  Kernel k;
  FluidResource link(k, 100.0);
  TimePoint survivor_done{};
  auto handle = k.spawn("victim", [&](Context& ctx) {
    (void)link.transfer(ctx, 1.0e9);
  });
  k.spawn("survivor", [&](Context& ctx) {
    ASSERT_TRUE(link.transfer(ctx, 1000.0).ok());
    survivor_done = ctx.now();
  });
  k.spawn("killer", [&](Context& ctx) {
    ctx.sleep(sec(5));
    ctx.kill(handle);
  });
  k.run();
  // 0-5 s shared at 50/s (250 moved), then alone at 100/s for 7.5 s.
  EXPECT_GE(survivor_done, kEpoch + sec(12.5));
  EXPECT_LE(survivor_done, kEpoch + sec(12.5) + msec(1));
  EXPECT_EQ(link.transfers_aborted(), 1);
  EXPECT_EQ(link.active_flows(), 0u);
  k.shutdown();
}

// Determinism probe: pinned completion times (us since the epoch), recorded
// from a run where the binary-heap queue and the timer wheel agreed.
TEST(FluidTest, CompletionTimesMatchPinned) {
  Kernel k(42);
  FluidResource link(k, 64.0);
  std::vector<Duration> done;
  for (int i = 0; i < 6; ++i) {
    k.spawn("f" + std::to_string(i), [&, i](Context& ctx) {
      ctx.sleep(sec(i));
      FluidFlowOptions fo;
      fo.weight = 1.0 + i % 3;
      ASSERT_TRUE(link.transfer(ctx, 100.0 * (i + 1), fo).ok());
      done.push_back(ctx.now() - kEpoch);
    });
  }
  k.run();
  k.shutdown();
  const std::vector<Duration> pinned = {
      usec(3437501),  usec(13593751), usec(16593751),
      usec(28656251), usec(30625001), usec(32812501)};
  EXPECT_EQ(done, pinned);
}

}  // namespace
}  // namespace ethergrid::sim
