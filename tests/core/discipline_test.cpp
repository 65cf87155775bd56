#include "core/discipline.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "both_clocks.hpp"
#include "core/sim_clock.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::core {
namespace {

using sim::Context;

using harness::run_on_both_clocks;

TEST(DisciplineTest, FixedRetriesWithoutDelay) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int calls = 0;
    DisciplineMetrics m;
    TryOptions options = TryOptions::times(5);
    options.backoff = BackoffPolicy::none();
    Status s = run_with_discipline(
        clock, rng, Discipline{"fixed", options, nullptr},
        [&](TimePoint) {
          ++calls;
          return Status::failure("busy");
        },
        &m);
    EXPECT_TRUE(s.failed());
    EXPECT_EQ(calls, 5);
    // No backoff: only the min_cycle floor (4 x 1 ms) passes.
    EXPECT_LT(clock.now(), kEpoch + msec(10));
    EXPECT_EQ(m.collisions, 5);
    EXPECT_EQ(m.deferrals, 0);
  });
}

TEST(DisciplineTest, AlohaBacksOffBetweenCollisions) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    DisciplineMetrics m;
    (void)run_with_discipline(
        clock, rng, Discipline{"aloha", TryOptions::times(4), nullptr},
        [&](TimePoint) { return Status::failure("busy"); }, &m);
    EXPECT_EQ(m.collisions, 4);
    EXPECT_GT(clock.now(), kEpoch + sec(6));  // >= 1+2+4 (min jitter)
  });
}

TEST(DisciplineTest, EthernetDefersWithoutConsuming) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int medium_busy = 3;  // carrier clears after 3 probes
    int work_runs = 0;
    DisciplineMetrics m;
    const Discipline d{"ethernet", TryOptions::times(10), [&](TimePoint) {
                         return medium_busy-- > 0 ? Status::unavailable("busy")
                                                  : Status::success();
                       }};
    Status s = run_with_discipline(
        clock, rng, d,
        [&](TimePoint) {
          ++work_runs;
          return Status::success();
        },
        &m);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(work_runs, 1);   // work ran only once the medium was clear
    EXPECT_EQ(m.deferrals, 3);
    EXPECT_EQ(m.probes, 4);
    EXPECT_EQ(m.collisions, 0);
    EXPECT_EQ(m.try_metrics.attempts, 4);  // deferrals consume attempts
  });
}

TEST(DisciplineTest, DeferralsApplyBackoff) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    const Discipline d{
        "ethernet", TryOptions::times(3),
        [](TimePoint) { return Status::unavailable("always busy"); }};
    DisciplineMetrics m;
    Status s = run_with_discipline(
        clock, rng, d,
        [](TimePoint) {
          ADD_FAILURE() << "work ran despite busy carrier";
          return Status::success();
        },
        &m);
    EXPECT_TRUE(s.failed());
    EXPECT_EQ(m.deferrals, 3);
    EXPECT_GT(clock.now(), kEpoch + sec(2));  // backed off between probes
  });
}

TEST(DisciplineTest, CollisionsCountedOnWorkFailure) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    int calls = 0;
    DisciplineMetrics m;
    const Discipline d{"ethernet", TryOptions::times(5),
                       [](TimePoint) { return Status::success(); }};
    Status s = run_with_discipline(
        clock, rng, d,
        [&](TimePoint) {
          ++calls;
          return calls < 3 ? Status::io_error("collision") : Status::success();
        },
        &m);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(m.collisions, 2);
    EXPECT_EQ(m.deferrals, 0);
    EXPECT_EQ(calls, 3);
  });
}

TEST(DisciplineTest, CarrierSenseReceivesDeadline) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    TimePoint seen{};
    const Discipline d{"ethernet", TryOptions::for_time(minutes(5)),
                       [&](TimePoint deadline) {
                         seen = deadline;
                         return Status::success();
                       }};
    (void)run_with_discipline(
        clock, rng, d, [](TimePoint) { return Status::success(); }, nullptr);
    EXPECT_EQ(seen, kEpoch + minutes(5));
  });
}

TEST(DisciplineTest, NullMetricsIsSafe) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    Status s = run_with_discipline(
        clock, rng, Discipline{"aloha", TryOptions::times(2), nullptr},
        [](TimePoint) { return Status::failure("x"); }, nullptr);
    EXPECT_TRUE(s.failed());
  });
}

TEST(DisciplineTest, TimeBudgetAppliesAcrossDeferrals) {
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    const Discipline d{
        "ethernet", TryOptions::for_time(sec(30)),
        [](TimePoint) { return Status::unavailable("busy forever"); }};
    DisciplineMetrics m;
    Status s = run_with_discipline(
        clock, rng, d, [](TimePoint) { return Status::success(); }, &m);
    EXPECT_EQ(s.code(), StatusCode::kTimeout);
    EXPECT_EQ(clock.now(), kEpoch + sec(30));
    EXPECT_GT(m.deferrals, 1);
  });
}

TEST(DisciplineTest, MoveOnlyWorkIsNeverCopied) {
  // A std::function cannot hold this work, so this only compiles while no
  // layer of run_with_discipline wraps it in one.
  run_on_both_clocks([](Context&, auto& clock, Rng& rng) {
    auto left = std::make_unique<int>(2);
    DisciplineMetrics m;
    Status s = run_with_discipline(
        clock, rng, Discipline{"aloha", TryOptions::times(4), nullptr},
        [left = std::move(left)](TimePoint) {
          return --*left > 0 ? Status::failure("busy") : Status::success();
        },
        &m);
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(m.collisions, 1);
    EXPECT_EQ(m.try_metrics.attempts, 2);
  });
}

}  // namespace
}  // namespace ethergrid::core
