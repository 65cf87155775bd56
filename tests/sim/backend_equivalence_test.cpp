// Backend equivalence: the raw fcontext switch and the sigsetjmp fallback
// are two implementations of ONE fiber handoff.  Same seed, same scenario,
// same fault plan => identical final statistics and a byte-identical
// fault audit under both switches.  This is the differential oracle that
// keeps the direct-switch fast path and the assembly switch honest: any
// scheduling divergence (wrong wake order, dropped wakeup, RNG stream
// skew, clobbered register) shows up here as a stats or audit diff.  The
// event queue's own order is checked against a binary-heap model in
// queue_oracle_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>

#include "exp/scenarios.hpp"
#include "obs/trace.hpp"
#include "shell/session.hpp"
#include "shell/sim_executor.hpp"
#include "sim/fault_plan.hpp"
#include "sim/kernel.hpp"

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

// Every context-switch configuration the kernel supports; index 0 -- the
// production default -- is the reference the other must match.
// Any divergence (clobbered callee-saved register, missed unwind) shows up
// as a stats/audit/trace diff.  On targets without the raw assembly kRaw
// coerces to kSigsetjmp, leaving a harmless duplicate combo.
struct Combo {
  sim::SwitchImpl switch_impl;
  const char* name;
};
constexpr Combo kCombos[] = {
    {sim::SwitchImpl::kRaw, "raw"},
    {sim::SwitchImpl::kSigsetjmp, "sigsetjmp"},
};

const char* combo_name(std::size_t i) { return kCombos[i].name; }

sim::KernelOptions combo_options(const Combo& combo,
                                 sim::KernelOptions base = {}) {
  base.switch_impl = combo.switch_impl;
  return base;
}

exp::ReaderTimeline run_readers(const Combo& combo, std::uint64_t seed,
                                const std::string& plan_spec,
                                std::string_view discipline) {
  exp::ReaderScenarioConfig config;
  config.seed = seed;
  config.kernel = combo_options(combo, config.kernel);
  config.faults = parse_plan(plan_spec);
  return exp::run_reader_timeline(config, discipline, sec(900), sec(30));
}

// The plan is held as a std::string, not a const char*, so the value
// gtest prints (and ctest names the case after) is the plan text rather
// than an address that moves from one run to the next.
class BackendEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(BackendEquivalenceTest, ChaosReaderStatsAndAuditMatch) {
  const auto [seed, plan] = GetParam();
  for (const char* discipline : {"fixed", "ethernet"}) {
    const auto ref = run_readers(kCombos[0], seed, plan, discipline);
    for (std::size_t c = 1; c < std::size(kCombos); ++c) {
      const auto got = run_readers(kCombos[c], seed, plan, discipline);
      SCOPED_TRACE(combo_name(c));
      EXPECT_EQ(ref.transfers_total, got.transfers_total);
      EXPECT_EQ(ref.collisions_total, got.collisions_total);
      EXPECT_EQ(ref.deferrals_total, got.deferrals_total);
      EXPECT_EQ(ref.faults_injected, got.faults_injected);
      // Byte-identical audit text: every injected fault fired at the same
      // virtual instant at the same site in the same order.
      EXPECT_EQ(ref.fault_audit, got.fault_audit);
      ASSERT_EQ(ref.points.size(), got.points.size());
      for (std::size_t i = 0; i < ref.points.size(); ++i) {
        EXPECT_EQ(ref.points[i].transfers, got.points[i].transfers) << i;
        EXPECT_EQ(ref.points[i].collisions, got.points[i].collisions) << i;
        EXPECT_EQ(ref.points[i].deferrals, got.points[i].deferrals) << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPlans, BackendEquivalenceTest,
    ::testing::Combine(::testing::Values(std::uint64_t(1), std::uint64_t(7),
                                         std::uint64_t(42)),
                       ::testing::Values(std::string(kPlanResets),
                                         std::string(kPlanPartitionStall))));

// The submit scenario exercises a different substrate mix (FD table,
// service queue aborts, crash pulses) -- one seed is enough on top of the
// reader matrix above.
TEST(BackendEquivalence, SubmitScaleMatches) {
  exp::SubmitScenarioConfig config;
  config.seed = 42;
  config.faults = parse_plan("schedd.submit:reset@0.05");

  config.kernel = combo_options(kCombos[0], config.kernel);
  const auto ref = exp::run_submit_scale_point(config, "ethernet", 80);
  for (std::size_t c = 1; c < std::size(kCombos); ++c) {
    config.kernel = combo_options(kCombos[c], config.kernel);
    const auto got = exp::run_submit_scale_point(config, "ethernet", 80);
    SCOPED_TRACE(combo_name(c));
    EXPECT_EQ(ref.jobs_submitted, got.jobs_submitted);
    EXPECT_EQ(ref.schedd_crashes, got.schedd_crashes);
    EXPECT_EQ(ref.fd_low_watermark, got.fd_low_watermark);
    EXPECT_EQ(ref.faults_injected, got.faults_injected);
    EXPECT_EQ(ref.fault_audit, got.fault_audit);
    EXPECT_EQ(ref.kernel_events, got.kernel_events);
  }
}

// The fluid capacity model joins the matrix: max-min reshare events are
// ordinary timer events, so a saturated fluid link with faults -- and the
// reservation book's grant arithmetic on top -- must replay identically
// under both switches, down to per-sender byte counts.
exp::BulkSweepPoint run_bulk(const Combo& combo,
                             std::string_view discipline) {
  exp::BulkScenarioConfig config;
  config.link_bps = 1.0 * 1024 * 1024;
  config.sender.file_bytes = 4 << 20;
  config.faults = parse_plan("bulk.write:fail@0.1");
  config.kernel = combo_options(combo, config.kernel);
  return exp::run_bulk_point(config, discipline, 6, sec(300));
}

TEST(BackendEquivalence, FluidBulkStatsAndAuditMatch) {
  for (const char* discipline : {"ethernet", "reservation"}) {
    SCOPED_TRACE(discipline);
    const auto ref = run_bulk(kCombos[0], discipline);
    ASSERT_GT(ref.bytes_sent, 0);
    EXPECT_GT(ref.faults_injected, 0);
    for (std::size_t c = 1; c < std::size(kCombos); ++c) {
      SCOPED_TRACE(combo_name(c));
      const auto got = run_bulk(kCombos[c], discipline);
      EXPECT_EQ(ref.bytes_sent, got.bytes_sent);
      EXPECT_EQ(ref.per_sender_bytes, got.per_sender_bytes);
      EXPECT_EQ(ref.grants, got.grants);
      EXPECT_EQ(ref.rejects, got.rejects);
      EXPECT_EQ(ref.deferrals, got.deferrals);
      EXPECT_EQ(ref.faults_injected, got.faults_injected);
      EXPECT_EQ(ref.fault_audit, got.fault_audit);
      EXPECT_EQ(ref.kernel_events, got.kernel_events);
    }
  }
}

// ---- trace determinism ----
//
// The observability layer extends the oracle: a fixed-seed run must export
// a byte-identical Perfetto JSON under every combo.  Span ids are assigned
// in emission order and every timestamp is virtual, so any divergence in
// scheduling or RNG consumption shows up as a byte diff here.

// A script exercising the span hierarchy: parallel forall branches on
// separate tracks, a try whose retries emit jittered backoff events.
const char kTraceScript[] =
    "forall x in 1 2 3\n"
    "  sleep ${x} seconds\n"
    "end\n"
    "try 3 times\n"
    "  false\n"
    "end\n";

std::string run_script_trace(const Combo& combo) {
  sim::Kernel kernel(7, combo_options(combo));
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
  return session.trace()->to_json();
}

TEST(BackendEquivalence, ScriptTraceBytesMatch) {
  const std::string ref = run_script_trace(kCombos[0]);
  EXPECT_NE(ref.find("forall"), std::string::npos);
  EXPECT_NE(ref.find("backoff"), std::string::npos);
  for (std::size_t c = 1; c < std::size(kCombos); ++c) {
    SCOPED_TRACE(combo_name(c));
    EXPECT_EQ(ref, run_script_trace(kCombos[c]));
  }
}

std::string run_reader_trace(const Combo& combo) {
  obs::TraceRecorder recorder("gridsim");
  obs::ObserverSet set;
  set.add(&recorder);
  exp::ReaderScenarioConfig config;
  config.seed = 42;
  config.kernel = combo_options(combo, config.kernel);
  config.faults = parse_plan(kPlanResets);
  config.observers = &set;
  (void)exp::run_reader_timeline(config, "ethernet", sec(900), sec(30));
  return recorder.to_json();
}

TEST(BackendEquivalence, ChaosReaderTraceBytesMatch) {
  const std::string ref = run_reader_trace(kCombos[0]);
  EXPECT_NE(ref.find("collision"), std::string::npos);
  EXPECT_NE(ref.find("fault"), std::string::npos);
  for (std::size_t c = 1; c < std::size(kCombos); ++c) {
    SCOPED_TRACE(combo_name(c));
    EXPECT_EQ(ref, run_reader_trace(kCombos[c]));
  }
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

}  // namespace
}  // namespace ethergrid
