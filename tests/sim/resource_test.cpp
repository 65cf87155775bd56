#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ethergrid::sim {
namespace {

TEST(ResourceTest, ImmediateAcquireWhenAvailable) {
  Kernel k;
  Resource r(k, 3);
  TimePoint at{kEpoch + hours(1)};
  k.spawn("p", [&](Context& ctx) {
    r.acquire(ctx, 2);
    at = ctx.now();
  });
  k.run();
  EXPECT_EQ(at, kEpoch);
  EXPECT_EQ(r.available(), 1);
  EXPECT_EQ(r.in_use(), 2);
}

TEST(ResourceTest, BlocksUntilReleased) {
  Kernel k;
  Resource r(k, 1);
  TimePoint got{};
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx);
    ctx.sleep(sec(10));
    r.release();
  });
  k.spawn("waiter", [&](Context& ctx) {
    ctx.sleep(sec(1));
    r.acquire(ctx);
    got = ctx.now();
    r.release();
  });
  k.run();
  EXPECT_EQ(got, kEpoch + sec(10));
  EXPECT_EQ(r.available(), 1);
}

TEST(ResourceTest, FifoOrderAmongWaiters) {
  Kernel k;
  Resource r(k, 1);
  std::vector<int> order;
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx);
    ctx.sleep(sec(10));
    r.release();
  });
  for (int i = 0; i < 3; ++i) {
    k.spawn("w" + std::to_string(i), [&, i](Context& ctx) {
      ctx.sleep(sec(i + 1));  // arrive in order 0,1,2
      r.acquire(ctx);
      order.push_back(i);
      ctx.sleep(sec(1));
      r.release();
    });
  }
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ResourceTest, TryAcquireDoesNotBlock) {
  Kernel k;
  Resource r(k, 2);
  EXPECT_TRUE(r.try_acquire(2));
  EXPECT_FALSE(r.try_acquire(1));
  r.release(2);
  EXPECT_TRUE(r.try_acquire(1));
}

TEST(ResourceTest, TryAcquireFailsWhileQueueNonEmpty) {
  // FIFO fairness: a try_acquire must not jump the queue even if units
  // would suffice for it.
  Kernel k;
  Resource r(k, 2);
  bool jumped = true;
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx, 2);
    ctx.sleep(sec(5));
    r.release(1);  // 1 free but the queued waiter wants 2
    ctx.sleep(sec(5));
    jumped = r.try_acquire(1);  // queue non-empty: must refuse
    r.release(1);
  });
  k.spawn("waiter", [&](Context& ctx) {
    ctx.sleep(sec(1));
    r.acquire(ctx, 2);
    r.release(2);
  });
  k.run();
  EXPECT_FALSE(jumped);
}

TEST(ResourceTest, QueueLengthVisible) {
  Kernel k;
  Resource r(k, 1);
  std::size_t observed = 0;
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx);
    ctx.sleep(sec(5));
    observed = r.queue_length();
    r.release();
  });
  for (int i = 0; i < 4; ++i) {
    k.spawn("w", [&](Context& ctx) {
      r.acquire(ctx);
      r.release();
    });
  }
  k.run();
  EXPECT_EQ(observed, 4u);
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(ResourceTest, DeadlineWhileQueuedRemovesWaiter) {
  Kernel k;
  Resource r(k, 1);
  bool threw = false;
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx);
    ctx.sleep(sec(100));
    r.release();
  });
  k.spawn("impatient", [&](Context& ctx) {
    ctx.sleep(sec(1));
    try {
      DeadlineScope scope(ctx, kEpoch + sec(5));
      r.acquire(ctx);
    } catch (const DeadlineExceeded&) {
      threw = true;
    }
  });
  k.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.available(), 1);  // holder's release not stolen by a ghost
}

TEST(ResourceTest, KillWhileQueuedHandsGrantOnward) {
  // If a queued waiter is killed, a later waiter must still get the units.
  Kernel k;
  Resource r(k, 1);
  TimePoint got{};
  auto victim = k.spawn("victim", [&](Context& ctx) {
    ctx.sleep(sec(1));
    r.acquire(ctx);  // queues behind holder; killed at t=3
    ADD_FAILURE() << "victim acquired unexpectedly";
  });
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx);
    ctx.sleep(sec(10));
    r.release();
  });
  k.spawn("killer", [&](Context& ctx) {
    ctx.sleep(sec(3));
    ctx.kill(victim);
  });
  k.spawn("waiter", [&](Context& ctx) {
    ctx.sleep(sec(2));
    r.acquire(ctx);
    got = ctx.now();
    r.release();
  });
  k.run();
  EXPECT_EQ(got, kEpoch + sec(10));
  EXPECT_EQ(r.available(), 1);
}

TEST(ResourceTest, KillAfterGrantHandsUnitsOnward) {
  // Granted at t=10 and killed at the same instant before it runs: the
  // victim's units go to the next waiter at once.
  Kernel k;
  Resource r(k, 1);
  TimePoint got{};
  k.spawn("holder", [&](Context& ctx) {
    r.acquire(ctx);
    ctx.sleep(sec(10));
    r.release();  // grants the victim
  });
  auto victim = k.spawn("victim", [&](Context& ctx) {
    ctx.sleep(sec(1));
    r.acquire(ctx);
    ADD_FAILURE() << "victim ran after its kill";
  });
  k.spawn("killer", [&](Context& ctx) {
    ctx.sleep(sec(10));  // wakes after the holder's release
    ctx.kill(victim);
  });
  k.spawn("waiter", [&](Context& ctx) {
    ctx.sleep(sec(2));
    r.acquire(ctx);
    got = ctx.now();
    r.release();
  });
  k.run();
  EXPECT_EQ(victim->result().code(), StatusCode::kKilled);
  EXPECT_EQ(got, kEpoch + sec(10));
  EXPECT_EQ(r.available(), 1);
  EXPECT_EQ(r.queue_length(), 0u);
}

TEST(ResourceTest, LeaseReleasesOnScopeExit) {
  Kernel k;
  Resource r(k, 1);
  k.spawn("p", [&](Context& ctx) {
    {
      ResourceLease lease(ctx, r);
      EXPECT_EQ(r.available(), 0);
    }
    EXPECT_EQ(r.available(), 1);
  });
  k.run();
}

TEST(ResourceTest, LeaseEarlyReleaseIsIdempotent) {
  Kernel k;
  Resource r(k, 2);
  k.spawn("p", [&](Context& ctx) {
    ResourceLease lease(ctx, r, 2);
    lease.release();
    lease.release();
    EXPECT_EQ(r.available(), 2);
  });
  k.run();
  EXPECT_EQ(r.available(), 2);
}

TEST(ResourceTest, LeaseReleasesDuringUnwind) {
  Kernel k;
  Resource r(k, 1);
  bool threw = false;
  k.spawn("p", [&](Context& ctx) {
    try {
      DeadlineScope scope(ctx, kEpoch + sec(1));
      ResourceLease lease(ctx, r);
      ctx.sleep(sec(100));
    } catch (const DeadlineExceeded&) {
      threw = true;
    }
  });
  k.run();
  EXPECT_TRUE(threw);
  EXPECT_EQ(r.available(), 1);
}

}  // namespace
}  // namespace ethergrid::sim
