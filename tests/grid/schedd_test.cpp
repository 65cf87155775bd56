#include "grid/schedd.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ethergrid::grid {
namespace {

ScheddConfig small_config() {
  ScheddConfig c;
  c.fd_capacity = 100;
  c.fds_per_connection = 10;
  c.fds_per_connection_jitter = 0;
  c.fds_per_transfer = 0;
  c.fds_per_service = 5;
  c.service_concurrency = 2;
  c.service_min = sec(1);
  c.service_max = sec(1);
  c.slowdown_per_connection = 0.0;
  c.connect_time = msec(100);
  c.restart_delay = sec(10);
  return c;
}

TEST(ScheddTest, SingleSubmissionSucceeds) {
  sim::Kernel k;
  Schedd schedd(k, small_config());
  Status result;
  k.spawn("client", [&](sim::Context& ctx) { result = schedd.submit(ctx); });
  k.run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(schedd.jobs_submitted(), 1);
  // connect 0.1s + service 1s.
  EXPECT_EQ(k.now(), kEpoch + msec(1100));
  // All descriptors returned after completion.
  EXPECT_EQ(schedd.fd_table().available(), 100);
  EXPECT_EQ(schedd.open_connections(), 0);
}

TEST(ScheddTest, ServiceConcurrencyQueuesFifo) {
  sim::Kernel k;
  Schedd schedd(k, small_config());
  std::vector<TimePoint> done;
  for (int i = 0; i < 4; ++i) {
    k.spawn("c" + std::to_string(i), [&](sim::Context& ctx) {
      Status s = schedd.submit(ctx);
      ASSERT_TRUE(s.ok());
      done.push_back(ctx.now());
    });
  }
  k.run();
  ASSERT_EQ(done.size(), 4u);
  // Concurrency 2, 1 s service: first two at 1.1 s, next two at 2.1 s.
  EXPECT_EQ(done[0], kEpoch + msec(1100));
  EXPECT_EQ(done[1], kEpoch + msec(1100));
  EXPECT_EQ(done[2], kEpoch + msec(2100));
  EXPECT_EQ(done[3], kEpoch + msec(2100));
}

TEST(ScheddTest, ConnectionRefusedWhenFdsExhausted) {
  // capacity 100, 10 per connection: the 10th concurrent connection leaves
  // nothing for service; the 11th cannot even connect.
  sim::Kernel k;
  ScheddConfig config = small_config();
  config.service_concurrency = 1;
  config.service_min = config.service_max = sec(60);  // pin connections
  Schedd schedd(k, config);
  int refused = 0;
  int crashed_or_dropped = 0;
  for (int i = 0; i < 12; ++i) {
    k.spawn("c" + std::to_string(i), [&](sim::Context& ctx) {
      Status s = schedd.submit(ctx);
      if (s.code() == StatusCode::kResourceExhausted) ++refused;
      if (s.code() == StatusCode::kUnavailable) ++crashed_or_dropped;
    });
  }
  k.run_until(kEpoch + sec(5));
  k.shutdown();  // nine submissions still in flight reference the schedd
  EXPECT_GT(refused, 0);
}

TEST(ScheddTest, CrashesWhenServiceFdsUnavailable) {
  // Descriptor pressure (held here by an external hog, in production by the
  // mass of open submitter connections) leaves the schedd unable to
  // allocate its own service descriptors: it crashes and drops every
  // in-flight submission at once (the broadcast jam).
  sim::Kernel k;
  ScheddConfig config = small_config();  // conn 10, svc 5, slots 2
  config.fd_capacity = 40;
  config.service_min = config.service_max = sec(30);
  Schedd schedd(k, config);
  // 40 - 11(hog) - 10(c0 conn) - 5(c0 svc) - 10(c1 conn) = 4 < 5: c1's
  // service allocation fails and crashes the daemon while c0 is mid-service.
  ASSERT_TRUE(schedd.fd_table().try_allocate(11));
  Status c0_result, c1_result;
  k.spawn("c0", [&](sim::Context& ctx) { c0_result = schedd.submit(ctx); });
  k.spawn("c1", [&](sim::Context& ctx) { c1_result = schedd.submit(ctx); });
  k.run();
  EXPECT_EQ(schedd.crashes(), 1);
  EXPECT_EQ(c1_result.code(), StatusCode::kUnavailable);  // the trigger
  EXPECT_EQ(c0_result.code(), StatusCode::kUnavailable);  // the bystander
  EXPECT_LT(k.now(), kEpoch + sec(30));  // c0 did not serve out its 30 s
  EXPECT_EQ(schedd.jobs_submitted(), 0);
  EXPECT_EQ(schedd.fd_table().available(), 40 - 11);  // all leases released
}

TEST(ScheddTest, RefusesWhileRestarting) {
  sim::Kernel k;
  ScheddConfig config = small_config();
  config.fd_capacity = 40;
  config.service_min = config.service_max = sec(30);
  config.restart_delay = sec(10);
  Schedd schedd(k, config);
  ASSERT_TRUE(schedd.fd_table().try_allocate(11));  // as above: c1 crashes it
  k.spawn("c0", [&](sim::Context& ctx) { (void)schedd.submit(ctx); });
  k.spawn("c1", [&](sim::Context& ctx) { (void)schedd.submit(ctx); });
  Status during_restart, after_restart;
  k.spawn("late", [&](sim::Context& ctx) {
    ctx.sleep(sec(2));  // the crash happened at ~0.1 s
    during_restart = schedd.submit(ctx);
    ctx.sleep(sec(15));  // well past restart; hog's descriptors still gone
    schedd.fd_table().free(11);
    after_restart = schedd.submit(ctx);
  });
  k.run();
  EXPECT_EQ(schedd.crashes(), 1);
  EXPECT_EQ(during_restart.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(after_restart.ok()) << after_restart.to_string();
}

TEST(ScheddTest, SubmissionSeriesRecordsTimes) {
  sim::Kernel k;
  Schedd schedd(k, small_config());
  k.spawn("client", [&](sim::Context& ctx) {
    ASSERT_TRUE(schedd.submit(ctx).ok());
    ASSERT_TRUE(schedd.submit(ctx).ok());
  });
  k.run();
  EXPECT_EQ(schedd.submissions().total(), 2);
  EXPECT_EQ(schedd.submissions().count_before(kEpoch + msec(1100)), 1);
  EXPECT_EQ(schedd.submissions().count_before(kEpoch + msec(2200)), 2);
}

TEST(ScheddTest, LoadSlowdownStretchesService) {
  // With slowdown_per_connection = 1, two concurrent connections make
  // service time scale visibly.
  sim::Kernel k;
  ScheddConfig config = small_config();
  config.slowdown_per_connection = 1.0;  // extreme for visibility
  config.service_concurrency = 2;
  Schedd schedd(k, config);
  std::vector<TimePoint> done;
  for (int i = 0; i < 2; ++i) {
    k.spawn("c", [&](sim::Context& ctx) {
      ASSERT_TRUE(schedd.submit(ctx).ok());
      done.push_back(ctx.now());
    });
  }
  k.run();
  ASSERT_EQ(done.size(), 2u);
  // The factor snapshots at service start: the first job sees 1 open
  // connection (factor 2 => 2 s), the second sees 2 (factor 3 => 3 s).
  EXPECT_EQ(done[0], kEpoch + msec(2100));
  EXPECT_EQ(done[1], kEpoch + msec(3100));
}

TEST(ServiceQueueTest, KillAfterGrantHandsSlotOnward) {
  // Granted at t=10 and killed at the same instant before it runs: the
  // victim's slot goes to the next waiter at once.
  sim::Kernel k;
  ServiceQueue queue(k, 1);
  TimePoint got{};
  k.spawn("holder", [&](sim::Context& ctx) {
    ASSERT_TRUE(queue.acquire(ctx).ok());
    ctx.sleep(sec(10));
    queue.release();  // grants the victim
  });
  auto victim = k.spawn("victim", [&](sim::Context& ctx) {
    ctx.sleep(sec(1));
    (void)queue.acquire(ctx);
    ADD_FAILURE() << "victim ran after its kill";
  });
  k.spawn("killer", [&](sim::Context& ctx) {
    ctx.sleep(sec(10));  // wakes after the holder's release
    ctx.kill(victim);
  });
  k.spawn("waiter", [&](sim::Context& ctx) {
    ctx.sleep(sec(2));
    ASSERT_TRUE(queue.acquire(ctx).ok());
    got = ctx.now();
    queue.release();
  });
  k.run();
  EXPECT_EQ(victim->result().code(), StatusCode::kKilled);
  EXPECT_EQ(got, kEpoch + sec(10));
  EXPECT_EQ(queue.available(), 1);
  EXPECT_EQ(queue.queue_length(), 0u);
}

TEST(ScheddTest, AbortedSubmitterReleasesEverything) {
  // A client killed mid-queue or mid-service must not leak descriptors or
  // connections -- the cancellation-cleanliness property of section 6.
  sim::Kernel k;
  ScheddConfig config = small_config();
  config.service_concurrency = 1;
  config.service_min = config.service_max = sec(30);
  Schedd schedd(k, config);
  auto victim = k.spawn("victim", [&](sim::Context& ctx) {
    (void)schedd.submit(ctx);
  });
  k.spawn("holder", [&](sim::Context& ctx) { (void)schedd.submit(ctx); });
  k.spawn("killer", [&](sim::Context& ctx) {
    ctx.sleep(sec(5));
    ctx.kill(victim, "user abort");
  });
  k.run();
  EXPECT_EQ(schedd.fd_table().available(), 100);
  EXPECT_EQ(schedd.open_connections(), 0);
}

TEST(ScheddTest, DeadlineAbortMidServiceReleasesEverything) {
  sim::Kernel k;
  ScheddConfig config = small_config();
  config.service_min = config.service_max = sec(30);
  Schedd schedd(k, config);
  bool timed_out = false;
  k.spawn("impatient", [&](sim::Context& ctx) {
    try {
      sim::DeadlineScope scope(ctx, kEpoch + sec(2));
      (void)schedd.submit(ctx);
    } catch (const sim::DeadlineExceeded&) {
      timed_out = true;
    }
  });
  k.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(schedd.fd_table().available(), 100);
  EXPECT_EQ(schedd.open_connections(), 0);
}

}  // namespace
}  // namespace ethergrid::grid
