// Determinism contract of the simulation kernel, in two halves.
//
// Pinned determinism: a fixed (seed, plan) world must replay to the same
// result on every build, bit for bit.  Each case renders its result --
// final statistics, per-sample series, fault audit, or exported trace
// bytes -- into one canonical text and compares its length and fnv1a64
// hash against a pin.  The pins were recorded on a kernel that still had
// two fiber switches (the fcontext assembly and a portable libc-based
// one), with both switches run and agreeing on every rendering, so a
// scheduling divergence (wrong wake order, dropped wakeup, RNG stream
// skew, clobbered register) shows up here as a pin mismatch.  The event
// queue's own order is checked against a binary-heap model in
// queue_oracle_test.cpp; the switch's register contract in
// fcontext_test.cpp.
//
// Sharded equivalence (below): one partitioned world under several shard
// and thread counts must agree with itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/scenarios.hpp"
#include "grid/fsbuffer.hpp"
#include "obs/trace.hpp"
#include "shell/session.hpp"
#include "shell/sim_executor.hpp"
#include "sim/fault_plan.hpp"
#include "sim/kernel.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/store.hpp"
#include "util/rng.hpp"

namespace ethergrid {
namespace {

// Same plans the chaos suite replays (tests/chaos/chaos_test.cpp).
const char kPlanResets[] = "fileserver.*.fetch:reset@0.25";
const char kPlanPartitionStall[] =
    "fileserver.yyy.*:drop@100-500;fileserver.*.fetch:stall@0.3,5";

sim::FaultPlan parse_plan(const std::string& spec) {
  sim::FaultPlan plan;
  Status s = sim::FaultPlan::parse(spec, &plan);
  EXPECT_TRUE(s.ok()) << s.message();
  return plan;
}

// A pinned rendering: its length (so a mismatch says "longer" or
// "shorter" at a glance) and its fnv1a64 hash.
struct Pin {
  std::size_t bytes;
  std::uint64_t fnv;
};

void expect_pin(const std::string& text, Pin pin) {
  EXPECT_EQ(text.size(), pin.bytes);
  EXPECT_EQ(fnv1a64(text), pin.fnv) << text.substr(0, 400);
}

std::string line(const char* key, std::int64_t value) {
  return std::string(key) + " " + std::to_string(value) + "\n";
}

// Canonical renderings: every field the pins cover, one per line, in a
// fixed order, then the fault audit verbatim.
std::string render(const exp::ReaderTimeline& t) {
  std::string out = line("transfers", t.transfers_total) +
                    line("collisions", t.collisions_total) +
                    line("deferrals", t.deferrals_total) +
                    line("faults", t.faults_injected);
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    out += "point " + std::to_string(i) + " " +
           std::to_string(t.points[i].transfers) + " " +
           std::to_string(t.points[i].collisions) + " " +
           std::to_string(t.points[i].deferrals) + "\n";
  }
  return out + "audit\n" + t.fault_audit;
}

std::string render(const exp::SubmitScalePoint& p) {
  return line("jobs", p.jobs_submitted) + line("crashes", p.schedd_crashes) +
         line("fd_low", p.fd_low_watermark) +
         line("faults", p.faults_injected) +
         line("events", std::int64_t(p.kernel_events)) + "audit\n" +
         p.fault_audit;
}

std::string render(const exp::BulkSweepPoint& p) {
  std::string out = line("bytes", p.bytes_sent) + "per_sender";
  for (std::int64_t b : p.per_sender_bytes) out += " " + std::to_string(b);
  return out + "\n" + line("grants", p.grants) + line("rejects", p.rejects) +
         line("deferrals", p.deferrals) + line("faults", p.faults_injected) +
         line("events", std::int64_t(p.kernel_events)) + "audit\n" +
         p.fault_audit;
}

exp::ReaderTimeline run_readers(std::uint64_t seed,
                                const std::string& plan_spec,
                                std::string_view discipline) {
  exp::ReaderScenarioConfig config;
  config.seed = seed;
  config.faults = parse_plan(plan_spec);
  return exp::run_reader_timeline(config, discipline, sec(900), sec(30));
}

// The plan is held as a std::string, not a const char*, so the value
// gtest prints (and ctest names the case after) is the plan text rather
// than an address that moves from one run to the next.
class PinnedDeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

// Pins recorded at the last two-switch kernel, both switches run and
// agreeing on every rendering.
struct ReaderPin {
  std::uint64_t seed;
  const char* plan;
  const char* discipline;
  Pin pin;
};
constexpr ReaderPin kReaderPins[] = {
    {1, kPlanResets, "fixed", {2474, 0xb4b226f8893cc655ull}},
    {1, kPlanResets, "ethernet", {3049, 0xfe94fb95b75132bbull}},
    {1, kPlanPartitionStall, "fixed", {2037, 0x0321aeb6629ce285ull}},
    {1, kPlanPartitionStall, "ethernet", {4377, 0x264611c212916ea7ull}},
    {7, kPlanResets, "fixed", {2260, 0xf036e81c922f888dull}},
    {7, kPlanResets, "ethernet", {3381, 0x122ffdfcf7a1847bull}},
    {7, kPlanPartitionStall, "fixed", {1825, 0xdc01179a92f77451ull}},
    {7, kPlanPartitionStall, "ethernet", {4458, 0x7675f5a6ee3505abull}},
    {42, kPlanResets, "fixed", {2035, 0x36880afc78adb811ull}},
    {42, kPlanResets, "ethernet", {2832, 0xca530fde353ff570ull}},
    {42, kPlanPartitionStall, "fixed", {1678, 0x88386b1760956ca4ull}},
    {42, kPlanPartitionStall, "ethernet", {4689, 0x304f59efd81d5a1dull}},
};

TEST_P(PinnedDeterminismTest, ChaosReaderStatsAndAuditMatch) {
  const auto [seed, plan] = GetParam();
  int checked = 0;
  for (const ReaderPin& pin : kReaderPins) {
    if (pin.seed != seed || plan != pin.plan) continue;
    SCOPED_TRACE(pin.discipline);
    const auto got = run_readers(seed, plan, pin.discipline);
    EXPECT_GT(got.transfers_total, 0);
    expect_pin(render(got), pin.pin);
    ++checked;
  }
  EXPECT_EQ(checked, 2);  // fixed and ethernet
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPlans, PinnedDeterminismTest,
    ::testing::Combine(::testing::Values(std::uint64_t(1), std::uint64_t(7),
                                         std::uint64_t(42)),
                       ::testing::Values(std::string(kPlanResets),
                                         std::string(kPlanPartitionStall))));

// The submit scenario exercises a different substrate mix (FD table,
// service queue aborts, crash pulses) -- one seed is enough on top of the
// reader matrix above.  Pin recorded with both switches agreeing.
TEST(PinnedDeterminism, SubmitScaleMatches) {
  exp::SubmitScenarioConfig config;
  config.seed = 42;
  config.faults = parse_plan("schedd.submit:reset@0.05");
  const auto got = exp::run_submit_scale_point(config, "ethernet", 80);
  EXPECT_GT(got.jobs_submitted, 0);
  expect_pin(render(got), {2575, 0x5a997092b7fcf028ull});
}

// The fluid capacity model: max-min reshare events are ordinary timer
// events, so a saturated fluid link with faults -- and the reservation
// book's grant arithmetic on top -- must replay identically, down to
// per-sender byte counts.  Pins recorded with both switches agreeing.
TEST(PinnedDeterminism, FluidBulkStatsAndAuditMatch) {
  struct BulkPin {
    const char* discipline;
    Pin pin;
  };
  constexpr BulkPin kPins[] = {
      {"ethernet", {420, 0x8e704c594d404e97ull}},
      {"reservation", {397, 0xf41b9eaa8a435c35ull}},
  };
  for (const BulkPin& pin : kPins) {
    SCOPED_TRACE(pin.discipline);
    exp::BulkScenarioConfig config;
    config.link_bps = 1.0 * 1024 * 1024;
    config.sender.file_bytes = 4 << 20;
    config.faults = parse_plan("bulk.write:fail@0.1");
    const auto got = exp::run_bulk_point(config, pin.discipline, 6, sec(300));
    ASSERT_GT(got.bytes_sent, 0);
    EXPECT_GT(got.faults_injected, 0);
    expect_pin(render(got), pin.pin);
  }
}

// ---- trace determinism ----
//
// The observability layer extends the contract: a fixed-seed run exports
// byte-identical Perfetto JSON.  Span ids are assigned in emission order
// and every timestamp is virtual, so any divergence in scheduling or RNG
// consumption changes the bytes.

// A script exercising the span hierarchy: parallel forall branches on
// separate tracks, a try whose retries emit jittered backoff events.
const char kTraceScript[] =
    "forall x in 1 2 3\n"
    "  sleep ${x} seconds\n"
    "end\n"
    "try 3 times\n"
    "  false\n"
    "end\n";

// Pin recorded with both switches agreeing.
TEST(PinnedDeterminism, ScriptTraceBytesMatch) {
  sim::Kernel kernel(7);
  shell::SimExecutor executor(kernel);
  shell::SessionOptions options;
  options.collect_trace = true;
  options.trace_process_name = "equiv";
  options.seed = 99;
  shell::Session session(executor, options);
  kernel.spawn("script", [&](sim::Context& ctx) {
    shell::SimExecutor::ContextBinding binding(executor, ctx);
    (void)session.run_source(kTraceScript);
  });
  kernel.run();
  const std::string json = session.trace()->to_json();
  EXPECT_NE(json.find("forall"), std::string::npos);
  EXPECT_NE(json.find("backoff"), std::string::npos);
  expect_pin(json, {3073, 0x848d0aa8b31090fbull});
}

// Pin recorded with both switches agreeing.
TEST(PinnedDeterminism, ChaosReaderTraceBytesMatch) {
  obs::TraceRecorder recorder("gridsim");
  obs::ObserverSet set;
  set.add(&recorder);
  exp::ReaderScenarioConfig config;
  config.seed = 42;
  config.faults = parse_plan(kPlanResets);
  config.observers = &set;
  (void)exp::run_reader_timeline(config, "ethernet", sec(900), sec(30));
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("collision"), std::string::npos);
  EXPECT_NE(json.find("fault"), std::string::npos);
  expect_pin(json, {24690, 0x4c855c598756dba4ull});
}

// ---- sharded equivalence ----
//
// The sharded kernel joins the oracle: ONE partitioned world, three
// executions -- unsharded (shards=1), sharded single-threaded (shards=4,
// threads=1), and sharded parallel (shards=4, threads=4) -- must agree on
// every per-site statistic and produce a byte-identical merged fault
// audit.  shards=1 vs shards=4 checks partition independence (per-site
// names pin the RNG streams); threads=1 vs threads=4 checks that worker
// scheduling reorders nothing virtual time doesn't.

// Per-site plans over the sharded submit world's "schedd<i>.submit" sites.
const char kShardPlanResets[] = "schedd*.submit:reset@0.1";
const char kShardPlanCrashStall[] =
    "schedd1.submit:crash@30;schedd*.submit:stall@0.2,2";

exp::ShardedSubmitResult run_sharded(std::uint64_t seed,
                                     const std::string& plan_spec,
                                     std::string_view discipline,
                                     std::size_t shards, std::size_t threads,
                                     bool record_trace = false,
                                     int bulk_per_site = 0,
                                     const char* bulk_discipline = "ethernet") {
  exp::ShardedSubmitConfig config;
  config.sites = 4;
  config.submitters_per_site = 20;
  config.remote_per_site = 2;
  config.seed = seed;
  config.sharded.shards = shards;
  config.sharded.threads = threads;
  config.faults = parse_plan(plan_spec);
  config.record_trace = record_trace;
  config.bulk_per_site = bulk_per_site;
  config.bulk.discipline = bulk_discipline;
  config.bulk.file_bytes = 4 << 20;
  return exp::run_sharded_submit(config, discipline, sec(120));
}

void expect_sharded_equal(const exp::ShardedSubmitResult& ref,
                          const exp::ShardedSubmitResult& got) {
  ASSERT_EQ(ref.by_site.size(), got.by_site.size());
  for (std::size_t i = 0; i < ref.by_site.size(); ++i) {
    EXPECT_EQ(ref.by_site[i].jobs_submitted, got.by_site[i].jobs_submitted)
        << "site " << i;
    EXPECT_EQ(ref.by_site[i].schedd_crashes, got.by_site[i].schedd_crashes)
        << "site " << i;
    EXPECT_EQ(ref.by_site[i].fd_low_watermark, got.by_site[i].fd_low_watermark)
        << "site " << i;
  }
  for (std::size_t i = 0; i < ref.by_site.size(); ++i) {
    EXPECT_EQ(ref.by_site[i].bulk_files, got.by_site[i].bulk_files)
        << "site " << i;
    EXPECT_EQ(ref.by_site[i].bulk_bytes, got.by_site[i].bulk_bytes)
        << "site " << i;
    EXPECT_EQ(ref.by_site[i].bulk_grants, got.by_site[i].bulk_grants)
        << "site " << i;
  }
  EXPECT_EQ(ref.jobs_total, got.jobs_total);
  EXPECT_EQ(ref.remote_jobs, got.remote_jobs);
  EXPECT_EQ(ref.remote_tries_failed, got.remote_tries_failed);
  EXPECT_EQ(ref.bulk_bytes_total, got.bulk_bytes_total);
  EXPECT_EQ(ref.bulk_grants_total, got.bulk_grants_total);
  EXPECT_EQ(ref.faults_injected, got.faults_injected);
  // Byte-identical merged audit: every fault fired at the same virtual
  // instant at the same site, independent of partition and thread count.
  EXPECT_EQ(ref.fault_audit, got.fault_audit);
}

class ShardedEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(ShardedEquivalenceTest, StatsAndAuditMatchAcrossShardsAndThreads) {
  const auto [seed, plan] = GetParam();
  for (const char* discipline : {"fixed", "ethernet"}) {
    SCOPED_TRACE(discipline);
    const auto ref = run_sharded(seed, plan, discipline, /*shards=*/1,
                                 /*threads=*/1);
    ASSERT_GT(ref.jobs_total, 0);
    EXPECT_GT(ref.faults_injected, 0);
    {
      SCOPED_TRACE("shards=4/threads=1");
      const auto got = run_sharded(seed, plan, discipline, 4, 1);
      expect_sharded_equal(ref, got);
    }
    {
      SCOPED_TRACE("shards=4/threads=4");
      const auto got = run_sharded(seed, plan, discipline, 4, 4);
      expect_sharded_equal(ref, got);
    }
  }
}

// Fluid substrates under sharding: each site runs a fluid bulk link whose
// flows are shard-local, so per-site bulk bytes/files/grants -- and the
// merged audit, which now includes site<i>.bulk.write faults -- must be
// identical for shards=1, shards=4/threads=1, and shards=4/threads=4.
TEST(ShardedEquivalence, FluidBulkLaneMatchesAcrossShardsAndThreads) {
  const char* plan = "schedd*.submit:reset@0.1;site*.bulk.write:fail@0.1";
  for (const char* bulk_discipline : {"ethernet", "reservation"}) {
    SCOPED_TRACE(bulk_discipline);
    const auto ref = run_sharded(42, plan, "ethernet", 1, 1,
                                 /*record_trace=*/false, /*bulk_per_site=*/3,
                                 bulk_discipline);
    ASSERT_GT(ref.bulk_bytes_total, 0);
    if (std::string(bulk_discipline) == "reservation") {
      EXPECT_GT(ref.bulk_grants_total, 0);
    }
    {
      SCOPED_TRACE("shards=4/threads=1");
      expect_sharded_equal(ref, run_sharded(42, plan, "ethernet", 4, 1, false,
                                            3, bulk_discipline));
    }
    {
      SCOPED_TRACE("shards=4/threads=4");
      expect_sharded_equal(ref, run_sharded(42, plan, "ethernet", 4, 4, false,
                                            3, bulk_discipline));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPlans, ShardedEquivalenceTest,
    ::testing::Combine(::testing::Values(std::uint64_t(1), std::uint64_t(7),
                                         std::uint64_t(42)),
                       ::testing::Values(std::string(kShardPlanResets),
                                         std::string(kShardPlanCrashStall))));

// The exported trace is part of the determinism contract at fixed shard
// count: shards=4/threads=4 must serialize the same merged bytes as
// shards=4/threads=1 (per-shard lanes, merged in shard order).
TEST(ShardedEquivalence, MergedTraceBytesMatchAcrossThreadCounts) {
  const auto ref = run_sharded(42, kShardPlanCrashStall, "ethernet", 4, 1,
                               /*record_trace=*/true);
  EXPECT_NE(ref.trace_json.find("fault"), std::string::npos);
  EXPECT_NE(ref.trace_json.find("shard3"), std::string::npos);
  const auto got = run_sharded(42, kShardPlanCrashStall, "ethernet", 4, 4,
                               /*record_trace=*/true);
  EXPECT_EQ(ref.trace_json, got.trace_json);
}

// The kernel-bound objects have no lock: a shard's worker owns them during
// a window, and the phase barrier hands them to the thread that closes it.
// One world per shard exercises each of them -- a Store producer/consumer
// pair, two FsBuffer writers gated by a one-unit Resource, and a
// SimExecutor running an ftsh loop -- and every consumed item is posted to
// the neighbouring shard, whose delivery process puts it into that shard's
// Store.  Each shard's transcript and event count must be byte-identical at
// threads=1 and threads=4 (and TSan, which runs every 'Shard' test, checks
// the threads=4 leg for races on the unlocked state).
struct ShardTranscript {
  std::vector<std::string> logs;
  std::vector<std::uint64_t> events;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
};

ShardTranscript run_kernel_bound_world(std::size_t threads) {
  constexpr std::size_t kShards = 4;
  constexpr int kItems = 6;
  sim::ShardedKernelOptions options;
  options.shards = kShards;
  options.threads = threads;
  options.lookahead = msec(50);
  sim::ShardedKernel sk(11, options);

  struct World {
    explicit World(sim::Kernel& k)
        : store(k, 2), gate(k, 1), buffer(k, 8 << 20), executor(k),
          session(executor, shell::SessionOptions{}) {}
    sim::Store<int> store;
    sim::Resource gate;
    grid::FsBuffer buffer;
    shell::SimExecutor executor;
    shell::Session session;
    std::string log;  // written only by processes of this world's shard
  };
  std::vector<std::unique_ptr<World>> worlds;
  for (std::size_t s = 0; s < kShards; ++s) {
    worlds.push_back(std::make_unique<World>(sk.shard(s)));
  }
  const auto stamp = [](sim::Context& ctx) {
    return std::to_string(ctx.now().time_since_epoch().count()) + "us ";
  };

  for (std::size_t s = 0; s < kShards; ++s) {
    World* w = worlds[s].get();
    World* next = worlds[(s + 1) % kShards].get();
    const std::size_t dst = (s + 1) % kShards;
    sk.spawn(s, "producer", [w, s](sim::Context& ctx) {
      for (int i = 0; i < kItems; ++i) {
        ctx.sleep(msec(70 + 10 * int(s)));
        w->store.put(ctx, i * 10 + int(s));
      }
    });
    // Consumes its own producer's items and the neighbour's mail.
    sk.spawn(s, "consumer", [&sk, &stamp, w, next, s, dst](sim::Context& ctx) {
      for (int i = 0; i < 2 * kItems; ++i) {
        const int v = w->store.get(ctx);
        w->log += stamp(ctx) + "got " + std::to_string(v) + "\n";
        if (v % 10 != int(s)) continue;  // mail: do not forward again
        sk.post(s, s, dst, msec(50), "mail", [next, v](sim::Context& mail) {
          next->store.put(mail, v);
        });
      }
    });
    for (int writer = 0; writer < 2; ++writer) {
      sk.spawn(s, "writer" + std::to_string(writer),
               [&stamp, w, writer](sim::Context& ctx) {
                 for (int file = 0; file < 3; ++file) {
                   sim::ResourceLease lease(ctx, w->gate);
                   const std::string name = "f" + std::to_string(writer) +
                                            "_" + std::to_string(file);
                   Status st = w->buffer.create(name);
                   for (int chunk = 0; st.ok() && chunk < 4; ++chunk) {
                     ctx.sleep(msec(20));
                     st = w->buffer.append(name, 1 << 20);
                   }
                   if (st.ok()) st = w->buffer.rename_done(name);
                   w->log += stamp(ctx) + name + " " +
                             std::string(status_code_name(st.code())) +
                             " free=" +
                             std::to_string(w->buffer.free_bytes()) + "\n";
                   if (!st.ok()) w->buffer.remove(name);
                 }
               });
    }
    sk.spawn(s, "ftsh", [&stamp, w](sim::Context& ctx) {
      shell::SimExecutor::ContextBinding binding(w->executor, ctx);
      for (int round = 0; round < 3; ++round) {
        const Status st = w->session.run_source(
            "try 4 times\n"
            "  flaky 50\n"
            "end\n"
            "forall x in 1 2\n"
            "  sleep ${x} seconds\n"
            "end\n"
            "echo round\n");
        w->log += stamp(ctx) + "ftsh " +
                  std::string(status_code_name(st.code())) + "\n";
      }
    });
  }
  sk.run();

  ShardTranscript out;
  for (std::size_t s = 0; s < kShards; ++s) {
    out.logs.push_back(worlds[s]->log + worlds[s]->session.output());
    out.events.push_back(sk.shard(s).events_processed());
  }
  out.windows = sk.windows_run();
  out.messages = sk.messages_delivered();
  sk.shutdown();
  return out;
}

TEST(ShardedEquivalence, KernelBoundObjectsMatchAcrossThreadCounts) {
  const ShardTranscript ref = run_kernel_bound_world(1);
  EXPECT_EQ(ref.messages, 4u * 6u);  // every shard forwards its 6 items
  for (const std::string& log : ref.logs) {
    EXPECT_NE(log.find("got"), std::string::npos);
    EXPECT_NE(log.find("f1_2"), std::string::npos);
    EXPECT_NE(log.find("ftsh"), std::string::npos);
  }
  const ShardTranscript got = run_kernel_bound_world(4);
  for (std::size_t s = 0; s < ref.logs.size(); ++s) {
    EXPECT_EQ(ref.logs[s], got.logs[s]) << "shard " << s;
    EXPECT_EQ(ref.events[s], got.events[s]) << "shard " << s;
  }
  EXPECT_EQ(ref.windows, got.windows);
  EXPECT_EQ(ref.messages, got.messages);
}

}  // namespace
}  // namespace ethergrid
