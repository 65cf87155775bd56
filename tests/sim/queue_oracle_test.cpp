// Differential oracle for the kernel's event queue.
//
// A binary heap (heap_queue.hpp, the original implementation) is kept as
// the reference model: its pop order is trivially the (time, seq) min.
// The hierarchical timer wheel must reproduce that order exactly -- same
// entries, same sequence -- under randomized schedules, cancellations
// (stale tokens), limit advances, and compaction, or the kernel's
// determinism contract breaks silently.  Three fixed seeds keep failures
// reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace ethergrid::sim {
namespace {

using internal::HeapQueue;
using internal::QueueEntry;
using internal::TimerWheel;

constexpr std::uint64_t kSeeds[] = {1, 7, 42};

QueueEntry entry_at(std::int64_t t, std::uint64_t seq, std::uint64_t token) {
  return QueueEntry{TimePoint(Duration(t)), seq, nullptr, token};
}

std::string key(const QueueEntry& e) {
  std::ostringstream out;
  out << e.time.time_since_epoch().count() << "/" << e.seq;
  return out.str();
}

// Random time offsets spanning every wheel level: the current L0 rotation,
// the higher rings, and the overflow bag beyond 2^40 us of coverage.
std::int64_t random_offset(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> bucket(0, 5);
  switch (bucket(rng)) {
    case 0: return 0;  // current instant: ready-run path
    case 1: return std::uniform_int_distribution<std::int64_t>(1, 1000)(rng);
    case 2:
      return std::uniform_int_distribution<std::int64_t>(1001, 1 << 16)(rng);
    case 3:
      return std::uniform_int_distribution<std::int64_t>(1 << 16,
                                                         1 << 28)(rng);
    case 4:
      return std::uniform_int_distribution<std::int64_t>(
          1 << 28, std::int64_t(1) << 39)(rng);
    default:  // beyond coverage: overflow bag
      return std::uniform_int_distribution<std::int64_t>(
          std::int64_t(1) << 40, std::int64_t(1) << 41)(rng);
  }
}

// Drives both queues through an identical randomized script of pushes and
// bounded pops and asserts the popped (time, seq) streams are identical,
// and that both report the same earliest live time after every step.
// `stale_bit` marks entries whose token has that bit set as stale; the
// wheel drops them internally (pred), the heap pops them and the harness
// filters -- the surviving streams must still match.
void run_differential(std::uint64_t seed, bool with_stale,
                      bool with_compaction) {
  std::mt19937_64 rng(seed);
  TimerWheel wheel;
  HeapQueue heap;
  const auto stale = [&](const QueueEntry& e) {
    return with_stale && (e.token & 1) != 0;
  };

  std::int64_t now = 0;
  std::uint64_t seq = 0;
  std::uniform_int_distribution<int> action(0, 9);
  std::uniform_int_distribution<std::uint64_t> token_dist(0, 3);

  for (int step = 0; step < 20000; ++step) {
    const int a = action(rng);
    if (a < 6) {  // push
      const QueueEntry e =
          entry_at(now + random_offset(rng), seq++, token_dist(rng));
      wheel.push(e);
      heap.push(e);
    } else if (a < 9) {  // advance and drain up to the new limit
      now += random_offset(rng) / 4;
      const TimePoint limit{Duration(now)};
      while (true) {
        QueueEntry from_wheel;
        std::size_t dropped = 0;
        bool wheel_got = false;
        // The wheel drops stale entries it meets; keep popping until it
        // yields a survivor (it only hands back ready-run residents,
        // whose staleness is the caller's job -- mirror the kernel).
        while (wheel.pop_due(limit, &from_wheel, stale, &dropped)) {
          if (stale(from_wheel)) continue;
          wheel_got = true;
          break;
        }
        QueueEntry from_heap;
        bool heap_got = false;
        while (heap.pop_due(limit, &from_heap)) {
          if (stale(from_heap)) continue;
          heap_got = true;
          break;
        }
        ASSERT_EQ(wheel_got, heap_got)
            << "seed " << seed << " step " << step << " now " << now;
        if (!wheel_got) break;
        ASSERT_EQ(key(from_wheel), key(from_heap))
            << "seed " << seed << " step " << step << " now " << now;
      }
    } else if (with_compaction) {
      wheel.compact_step(stale);
      heap.compact(stale);
    }
    // The exact live minimum the sharded horizon reads, after every step.
    ASSERT_EQ(wheel.min_live(stale), heap.min_live(stale))
        << "seed " << seed << " step " << step << " now " << now;
  }

  // Full drain: everything left must come out in the same order too.
  while (true) {
    QueueEntry from_wheel;
    std::size_t dropped = 0;
    bool wheel_got = false;
    while (wheel.pop_due(TimePoint::max(), &from_wheel, stale, &dropped)) {
      if (stale(from_wheel)) continue;
      wheel_got = true;
      break;
    }
    QueueEntry from_heap;
    bool heap_got = false;
    while (heap.pop_due(TimePoint::max(), &from_heap)) {
      if (stale(from_heap)) continue;
      heap_got = true;
      break;
    }
    ASSERT_EQ(wheel_got, heap_got) << "seed " << seed << " (final drain)";
    if (!wheel_got) break;
    ASSERT_EQ(key(from_wheel), key(from_heap))
        << "seed " << seed << " (final drain)";
  }
  EXPECT_EQ(wheel.size(), 0u) << "seed " << seed;
}

TEST(QueueOracle, PopOrderMatchesHeap) {
  for (std::uint64_t seed : kSeeds) {
    run_differential(seed, /*with_stale=*/false, /*with_compaction=*/false);
  }
}

TEST(QueueOracle, PopOrderMatchesHeapUnderStaleDrops) {
  for (std::uint64_t seed : kSeeds) {
    run_differential(seed, /*with_stale=*/true, /*with_compaction=*/false);
  }
}

TEST(QueueOracle, PopOrderMatchesHeapUnderCompaction) {
  for (std::uint64_t seed : kSeeds) {
    run_differential(seed, /*with_stale=*/true, /*with_compaction=*/true);
  }
}

// Same-timestamp bursts are where FIFO-by-seq actually bites: every entry
// lands in one L0 slot (or the ready run) and the wheel must still hand
// them back in push order.
TEST(QueueOracle, EqualTimestampsPopInSeqOrder) {
  for (std::uint64_t seed : kSeeds) {
    std::mt19937_64 rng(seed);
    TimerWheel wheel;
    std::uint64_t seq = 0;
    const auto never_stale = [](const QueueEntry&) { return false; };
    for (int burst = 0; burst < 64; ++burst) {
      const std::int64_t t =
          std::uniform_int_distribution<std::int64_t>(0, 1 << 20)(rng);
      for (int i = 0; i < 16; ++i) {
        wheel.push(entry_at(t, seq++, 0));
      }
    }
    QueueEntry out;
    std::size_t dropped = 0;
    std::int64_t last_t = -1;
    std::uint64_t last_seq = 0;
    bool first = true;
    while (wheel.pop_due(TimePoint::max(), &out, never_stale, &dropped)) {
      const std::int64_t t = out.time.time_since_epoch().count();
      if (!first && t == last_t) {
        EXPECT_GT(out.seq, last_seq) << "FIFO violated at t=" << t;
      } else if (!first) {
        EXPECT_GT(t, last_t);
      }
      last_t = t;
      last_seq = out.seq;
      first = false;
    }
    EXPECT_EQ(wheel.size(), 0u);
  }
}

// Same-instant bursts: hundreds of entries on one tick, the shape of Fixed
// clients retrying in lockstep after a crash.  The wheel and the heap model
// get the same entries, and every pop must agree.
class Twin {
 public:
  QueueEntry push(std::int64_t t) {
    const QueueEntry e = entry_at(t, seq_++, 0);
    repush(e);
    return e;
  }
  // Puts e back into both queues: a re-push keeps its original seq.
  void repush(const QueueEntry& e) {
    wheel_.push(e);
    heap_.push(e);
  }
  // Pops one due entry from each; both must agree on whether there is one
  // and on which it is.
  bool pop(std::int64_t limit, QueueEntry* out) {
    std::size_t dropped = 0;
    const auto never_stale = [](const QueueEntry&) { return false; };
    const bool wheel_got =
        wheel_.pop_due(at(limit), out, never_stale, &dropped);
    QueueEntry from_heap;
    const bool heap_got = heap_.pop_due(at(limit), &from_heap);
    EXPECT_EQ(wheel_got, heap_got) << "limit " << limit;
    if (wheel_got && heap_got) {
      EXPECT_EQ(key(*out), key(from_heap)) << "limit " << limit;
    }
    EXPECT_EQ(dropped, 0u);
    return wheel_got && heap_got;
  }
  // Pops everything due by limit; returns how many came out.
  std::size_t drain(std::int64_t limit) {
    std::size_t n = 0;
    QueueEntry e;
    while (pop(limit, &e)) ++n;
    return n;
  }
  std::size_t size() const { return wheel_.size(); }

 private:
  static TimePoint at(std::int64_t t) { return TimePoint(Duration(t)); }

  TimerWheel wheel_;
  HeapQueue heap_;
  std::uint64_t seq_ = 0;
};

constexpr int kBurst = 400;

TEST(QueueOracleBurst, ThroughLevelZero) {
  Twin twin;
  // Three ticks inside level 0's window, interleaved push by push.
  for (int i = 0; i < kBurst; ++i) {
    twin.push(300);
    if (i % 2 == 0) twin.push(777);
    if (i % 3 == 0) twin.push(301);
  }
  EXPECT_EQ(twin.drain(1000), std::size_t(kBurst + kBurst / 2 + 134));
  // Again across the ring's wrap.
  for (int i = 0; i < kBurst; ++i) {
    twin.push(1000 + 1020);
    twin.push(1000 + 5);
  }
  EXPECT_EQ(twin.drain(4000), std::size_t(2 * kBurst));
  EXPECT_EQ(twin.size(), 0u);
}

TEST(QueueOracleBurst, CascadedFromCoarseSlots) {
  Twin twin;
  // One tick reached from three levels: filed at level 2 while the cursor
  // is far, at level 1 once it is closer, at level 0 last.
  const std::int64_t t = 3 * 65536 + 5 * 1024 + 17;
  // And one tick on a level-2 slot's first microsecond, whose entries the
  // cascade hands straight to the ready run.
  const std::int64_t edge = 5 * 65536;
  for (int i = 0; i < kBurst / 2; ++i) {
    twin.push(t);
    twin.push(edge);
    if (i % 4 == 0) twin.push(t + 1);
  }
  EXPECT_EQ(twin.drain(t - 40000), 0u);
  for (int i = 0; i < kBurst / 4; ++i) {
    twin.push(t);
    if (i % 4 == 0) twin.push(t - 1);
  }
  EXPECT_EQ(twin.drain(t - 500), 0u);
  for (int i = 0; i < kBurst / 4; ++i) twin.push(t);
  EXPECT_EQ(twin.drain(t - 2), 0u);
  EXPECT_EQ(twin.drain(t), std::size_t(kBurst + 25));
  EXPECT_EQ(twin.drain(edge), std::size_t(kBurst / 2 + kBurst / 8));
  EXPECT_EQ(twin.size(), 0u);
}

TEST(QueueOracleBurst, PushedAtTheCursor) {
  Twin twin;
  const std::int64_t t = 2048 + 3;
  for (int i = 0; i < kBurst; ++i) twin.push(t);
  QueueEntry e;
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(twin.pop(t, &e));
  // The cursor stands on t with 300 entries still queued: these append.
  for (int i = 0; i < kBurst; ++i) twin.push(t);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(twin.pop(t, &e));
  // Pushes for an earlier instant (the cursor is past it) join the run
  // too, in (time, seq) order.
  for (int i = 0; i < kBurst / 4; ++i) twin.push(t - 7);
  EXPECT_EQ(twin.drain(t), std::size_t(kBurst + 250 + kBurst / 4));
  // Into an empty run, one by one, as a yield does.
  for (int i = 0; i < kBurst; ++i) {
    twin.push(t);
    ASSERT_TRUE(twin.pop(t, &e));
  }
  EXPECT_EQ(twin.size(), 0u);
}

// The model checker's strategy pop takes entries out to inspect them and
// puts them back with their original seqs, into a run holding later ones.
TEST(QueueOracleBurst, StrategyRepushesOfOlderSeqs) {
  std::mt19937_64 rng(7);
  Twin twin;
  const std::int64_t t = 90000;
  for (int i = 0; i < kBurst; ++i) twin.push(t);
  for (int round = 0; round < 8; ++round) {
    // Pop a handful, then put them back in reverse or shuffled order.
    std::vector<QueueEntry> held(std::size_t(5 + round * 7));
    for (QueueEntry& e : held) ASSERT_TRUE(twin.pop(t, &e));
    if (round % 2 == 0) {
      std::reverse(held.begin(), held.end());
    } else {
      std::shuffle(held.begin(), held.end(), rng);
    }
    for (const QueueEntry& e : held) twin.repush(e);
    // Phase two's shape: pop past the pick, hold the skipped aside, pop
    // the pick, restore the skipped.
    std::vector<QueueEntry> skipped(std::size_t(round + 1));
    for (QueueEntry& e : skipped) ASSERT_TRUE(twin.pop(t, &e));
    QueueEntry pick;
    ASSERT_TRUE(twin.pop(t, &pick));
    for (const QueueEntry& e : skipped) twin.repush(e);
    twin.push(t);  // and a fresh same-instant schedule behind them
  }
  EXPECT_EQ(twin.drain(t), std::size_t(kBurst));
  EXPECT_EQ(twin.size(), 0u);
}

// min_live cases the random script reaches only by chance.  Odd tokens
// are stale, as in run_differential.
bool odd_token(const QueueEntry& e) { return (e.token & 1) != 0; }

TimePoint at_us(std::int64_t t) { return TimePoint(Duration(t)); }

// Moves the cursor to `to` (nothing may be due before it).
void advance(TimerWheel& wheel, std::int64_t to) {
  QueueEntry out;
  std::size_t dropped = 0;
  ASSERT_FALSE(wheel.pop_due(at_us(to), &out, odd_token, &dropped));
}

TEST(QueueOracleMinLive, EmptyQueueHasNoMinimum) {
  TimerWheel wheel;
  EXPECT_EQ(wheel.min_live(odd_token), TimePoint::max());
  wheel.push(entry_at(5, 0, 1));  // stale only
  wheel.push(entry_at(1 << 20, 1, 1));
  EXPECT_EQ(wheel.min_live(odd_token), TimePoint::max());
}

TEST(QueueOracleMinLive, SkipsSlotsHoldingOnlyStaleEntries) {
  TimerWheel wheel;
  std::uint64_t seq = 0;
  // Level 0: the first occupied slot (t=10) is all stale.
  wheel.push(entry_at(10, seq++, 1));
  wheel.push(entry_at(10, seq++, 3));
  wheel.push(entry_at(20, seq++, 0));
  EXPECT_EQ(wheel.min_live(odd_token), at_us(20));
  // Level 1: the first occupied slot (granule 4) is all stale; the live
  // entry sits two slots later, behind a level-0 entry that is stale too.
  TimerWheel coarse;
  coarse.push(entry_at(500, seq++, 1));
  coarse.push(entry_at(4 * 1024 + 7, seq++, 1));
  coarse.push(entry_at(4 * 1024 + 900, seq++, 3));
  coarse.push(entry_at(6 * 1024 + 3, seq++, 2));
  coarse.push(entry_at(6 * 1024 + 1, seq++, 1));
  coarse.push(entry_at(9 * 1024, seq++, 0));
  EXPECT_EQ(coarse.min_live(odd_token), at_us(6 * 1024 + 3));
}

TEST(QueueOracleMinLive, ReadsTheCoarseSlotHoldingTheCursor) {
  TimerWheel wheel;
  std::uint64_t seq = 0;
  // Filed at level 1, granule 1, while the cursor is at 0.
  wheel.push(entry_at(1500, seq++, 0));
  wheel.push(entry_at(1100, seq++, 1));
  advance(wheel, 500);
  // Now within level 0's reach; it lands exactly on granule 1's start.
  wheel.push(entry_at(1024, seq++, 0));
  QueueEntry out;
  std::size_t dropped = 0;
  ASSERT_TRUE(wheel.pop_due(at_us(1024), &out, odd_token, &dropped));
  ASSERT_EQ(out.time, at_us(1024));
  // The cursor stands inside granule 1, whose slot has not cascaded yet;
  // a level-0 entry later than its live cell must not hide it.
  wheel.push(entry_at(1900, seq++, 0));
  EXPECT_EQ(wheel.min_live(odd_token), at_us(1500));
  ASSERT_TRUE(wheel.pop_due(at_us(2000), &out, odd_token, &dropped));
  EXPECT_EQ(out.time, at_us(1500));
  EXPECT_EQ(wheel.min_live(odd_token), at_us(1900));
}

TEST(QueueOracleMinLive, FindsALiveEntryOnlyInTheOverflowBag) {
  TimerWheel wheel;
  const std::int64_t far = std::int64_t(1) << 41;  // beyond 2^40 us
  wheel.push(entry_at(100, 0, 1));
  wheel.push(entry_at(70000, 1, 1));
  wheel.push(entry_at(far - 5, 2, 1));
  wheel.push(entry_at(far, 3, 0));
  EXPECT_EQ(wheel.min_live(odd_token), at_us(far));
  wheel.push(entry_at(far + 9, 4, 0));
  EXPECT_EQ(wheel.min_live(odd_token), at_us(far));
}

// Kernel-level pin: a randomized simulation's (virtual time, process) wake
// trace.  The hashes below were recorded from a run in which the kernel on
// the binary heap and the kernel on the timer wheel produced identical
// traces, so a wheel change that reorders kernel events fails here.  Debug
// builds also abort on any out-of-order delivery
// (Kernel::audit_delivery_order).
std::vector<std::string> run_kernel_trace(std::uint64_t seed) {
  Kernel kernel(seed);
  std::vector<std::string> trace;
  Event tick(kernel);
  for (int i = 0; i < 6; ++i) {
    kernel.spawn("worker" + std::to_string(i), [&, i](Context& ctx) {
      std::mt19937_64 rng(seed * 977 + i);
      for (int step = 0; step < 200; ++step) {
        std::ostringstream line;
        line << "w" << i << "@"
             << ctx.now().time_since_epoch().count() << "#" << step;
        trace.push_back(line.str());
        switch (rng() % 4) {
          case 0:
            ctx.sleep(usec(std::int64_t(rng() % 5000)));
            break;
          case 1:
            ctx.sleep(msec(std::int64_t(rng() % 50)));
            break;
          case 2:
            tick.pulse();
            ctx.sleep(usec(1));
            break;
          default:
            if (!ctx.wait_for(tick, usec(std::int64_t(rng() % 2000)))) {
              trace.push_back("timeout");
            }
            break;
        }
      }
    });
  }
  kernel.run();
  return trace;
}

TEST(QueueOracle, KernelTracesMatchPinnedHashes) {
  struct Pin {
    std::uint64_t seed;
    std::size_t lines;
    std::uint64_t fnv;
  };
  constexpr Pin kPins[] = {
      {1, 1455, 0x416712a1c7562f0cull},
      {7, 1473, 0xe6fdaf8109b124fbull},
      {42, 1459, 0xd8a636f620338143ull},
  };
  for (const Pin& pin : kPins) {
    const auto trace = run_kernel_trace(pin.seed);
    std::string joined;
    for (const std::string& line : trace) joined += line + "\n";
    EXPECT_EQ(trace.size(), pin.lines) << "seed " << pin.seed;
    EXPECT_EQ(fnv1a64(joined), pin.fnv) << "seed " << pin.seed;
  }
}

}  // namespace
}  // namespace ethergrid::sim
