#include "core/clock.hpp"

#include <gtest/gtest.h>

#include "core/lease.hpp"
#include "core/sim_clock.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::core {
namespace {

TEST(SimClockTest, TracksKernelTime) {
  sim::Kernel kernel;
  kernel.spawn("p", [](sim::Context& ctx) {
    SimClock clock(ctx);
    EXPECT_EQ(clock.now(), kEpoch);
    clock.sleep(sec(42));
    EXPECT_EQ(clock.now(), kEpoch + sec(42));
  });
  kernel.run();
}

TEST(SimClockTest, WithDeadlinePreemptsBody) {
  sim::Kernel kernel;
  kernel.spawn("p", [](sim::Context& ctx) {
    SimClock clock(ctx);
    bool completed = false;
    Status s = clock.with_deadline(kEpoch + sec(2), [&]() -> Status {
      ctx.sleep(hours(1));
      completed = true;
      return Status::success();
    });
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_FALSE(completed);
    EXPECT_EQ(clock.now(), kEpoch + sec(2));
  });
  kernel.run();
}

TEST(SimClockTest, WithDeadlineLetsEnclosingDeadlinePropagate) {
  sim::Kernel kernel;
  bool outer_caught = false;
  kernel.spawn("p", [&](sim::Context& ctx) {
    SimClock clock(ctx);
    try {
      sim::DeadlineScope outer(ctx, kEpoch + sec(1));
      (void)clock.with_deadline(kEpoch + hours(1), [&]() -> Status {
        ctx.sleep(minutes(30));
        return Status::success();
      });
      ADD_FAILURE() << "outer deadline did not fire";
    } catch (const sim::DeadlineExceeded&) {
      outer_caught = true;
    }
  });
  kernel.run();
  EXPECT_TRUE(outer_caught);
}

TEST(LeaseTimerTest, NeverExpiresWithZeroSlice) {
  sim::Kernel kernel;
  kernel.spawn("p", [](sim::Context& ctx) {
    SimClock clock(ctx);
    LeaseTimer lease(clock, Duration(0));
    ctx.sleep(hours(100));
    EXPECT_FALSE(lease.expired());
  });
  kernel.run();
}

TEST(LeaseTimerTest, ExpiresAfterSlice) {
  sim::Kernel kernel;
  kernel.spawn("p", [](sim::Context& ctx) {
    SimClock clock(ctx);
    LeaseTimer lease(clock, sec(10));
    EXPECT_FALSE(lease.expired());
    ctx.sleep(sec(9));
    EXPECT_FALSE(lease.expired());
    ctx.sleep(sec(1));
    EXPECT_TRUE(lease.expired());  // boundary inclusive
    EXPECT_EQ(lease.held(), sec(10));
  });
  kernel.run();
}

TEST(LeaseTimerTest, OnAcquireRestartsSlice) {
  sim::Kernel kernel;
  kernel.spawn("p", [](sim::Context& ctx) {
    SimClock clock(ctx);
    LeaseTimer lease(clock, sec(10));
    ctx.sleep(sec(15));
    EXPECT_TRUE(lease.expired());
    lease.on_acquire();
    EXPECT_FALSE(lease.expired());
    EXPECT_EQ(lease.held(), Duration(0));
  });
  kernel.run();
}

}  // namespace
}  // namespace ethergrid::core
