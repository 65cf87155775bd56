// Scenario-client integration at small scale: a handful of clients against
// each substrate, verifying the qualitative behaviour each figure relies on.
//
// Disciplines are selected by registry name throughout (the DisciplineKind
// enum shim is gone); the first test pins the registry's resolution of the
// three paper names these clients rely on.
#include "grid/clients.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace ethergrid::grid {
namespace {

TEST(DisciplineRegistryTest, PaperNamesResolve) {
  EXPECT_EQ(resolve_discipline("fixed").name, "fixed");
  EXPECT_EQ(resolve_discipline("aloha").name, "aloha");
  EXPECT_EQ(resolve_discipline("ethernet").name, "ethernet");
  EXPECT_FALSE(resolve_discipline("fixed").carrier_sense);
  EXPECT_TRUE(resolve_discipline("ethernet").carrier_sense);
}

// The traits are the one description of each discipline's backoff rule:
// Fixed never backs off, not even under a per-client override; the others
// take the paper's exponential default or the override.
TEST(DisciplineRegistryTest, TryOptionsFollowTheBackoffRule) {
  using core::BackoffPolicy;
  const DisciplineTraits& fixed = resolve_discipline("fixed");
  EXPECT_EQ(fixed.try_options(sec(10)).backoff.kind,
            BackoffPolicy::Kind::kNone);
  EXPECT_EQ(fixed.try_options(sec(10), BackoffPolicy::paper_default())
                .backoff.kind,
            BackoffPolicy::Kind::kNone);
  for (const char* name : {"aloha", "ethernet"}) {
    SCOPED_TRACE(name);
    const DisciplineTraits& traits = resolve_discipline(name);
    const core::TryOptions options = traits.try_options(sec(10));
    EXPECT_EQ(options.backoff.kind, BackoffPolicy::Kind::kExponential);
    EXPECT_EQ(options.time_limit, sec(10));
    EXPECT_EQ(traits.try_options(sec(10), BackoffPolicy::none()).backoff.kind,
              BackoffPolicy::Kind::kNone);
  }
}

// ------------------------------------------------------------- submitters

ScheddConfig tiny_schedd() {
  ScheddConfig c;
  c.fd_capacity = 200;
  c.fds_per_connection = 10;
  c.fds_per_connection_jitter = 0;
  c.fds_per_transfer = 0;
  c.fds_per_service = 4;
  c.service_concurrency = 2;
  c.service_min = sec(1);
  c.service_max = sec(2);
  c.slowdown_per_connection = 0;
  return c;
}

TEST(SubmitterTest, SingleSubmitterSubmitsSteadily) {
  sim::Kernel k;
  Schedd schedd(k, tiny_schedd());
  SubmitterConfig config;
  config.discipline = "aloha";
  SubmitterStats stats;
  k.spawn("submitter", make_submitter(schedd, config, &stats));
  k.run_until(kEpoch + minutes(5));
  k.shutdown();  // clients outlive the window; stop them before teardown
  // cycle ~ 0.5 startup + 0.1 connect + ~1.5 service: ~140 jobs in 5 min.
  EXPECT_GT(stats.jobs_succeeded, 100);
  EXPECT_EQ(stats.tries_failed, 0);
  EXPECT_EQ(schedd.jobs_submitted(), stats.jobs_succeeded);
}

TEST(SubmitterTest, EthernetDefersBelowThreshold) {
  sim::Kernel k;
  ScheddConfig sc = tiny_schedd();
  sc.service_min = sc.service_max = sec(30);  // pin connections
  Schedd schedd(k, sc);
  // Soak up descriptors so that free < threshold.
  ASSERT_TRUE(schedd.fd_table().try_allocate(150));  // 50 left
  SubmitterConfig config;
  config.discipline = "ethernet";
  config.fd_threshold = 100;
  config.try_budget = sec(30);
  SubmitterStats stats;
  k.spawn("submitter", make_submitter(schedd, config, &stats));
  k.run_until(kEpoch + minutes(2));
  k.shutdown();
  EXPECT_EQ(stats.jobs_succeeded, 0);
  EXPECT_GT(stats.discipline.deferrals, 0);
  EXPECT_EQ(stats.discipline.collisions, 0);  // never touched the schedd
  EXPECT_EQ(schedd.open_connections(), 0);
}

TEST(SubmitterTest, FixedSubmitterRetriesWithoutBackoff) {
  sim::Kernel k;
  ScheddConfig sc = tiny_schedd();
  sc.fd_capacity = 10;  // nothing can connect (needs 10 + 4 for service)
  sc.fds_per_connection = 10;
  Schedd schedd(k, sc);
  SubmitterConfig fixed_config;
  fixed_config.discipline = "fixed";
  fixed_config.try_budget = sec(60);
  SubmitterStats fixed_stats;
  SubmitterConfig aloha_config = fixed_config;
  aloha_config.discipline = "aloha";
  SubmitterStats aloha_stats;
  {
    sim::Kernel k2;  // separate worlds so they do not share the schedd
    Schedd schedd2(k2, sc);
    k2.spawn("aloha", make_submitter(schedd2, aloha_config, &aloha_stats));
    k2.run_until(kEpoch + minutes(5));
    k2.shutdown();
  }
  k.spawn("fixed", make_submitter(schedd, fixed_config, &fixed_stats));
  k.run_until(kEpoch + minutes(5));
  k.shutdown();
  // The fixed client hammers: far more attempts than the backing-off Aloha.
  EXPECT_GT(fixed_stats.discipline.try_metrics.attempts,
            4 * aloha_stats.discipline.try_metrics.attempts);
  EXPECT_EQ(fixed_stats.jobs_succeeded, 0);
  EXPECT_EQ(aloha_stats.jobs_succeeded, 0);
}

// -------------------------------------------------------------- producers

TEST(ProducerConsumerTest, UncontendedProducerFlowsThrough) {
  sim::Kernel k;
  FsBuffer buffer(k, 120 << 20);
  IoChannel channel(k, IoChannelConfig{});
  ProducerConfig pc;
  pc.discipline = "aloha";
  pc.compute_min = pc.compute_max = sec(10);  // gentle producer
  pc.name_prefix = "p0";
  ProducerStats ps;
  ConsumerConfig cc;
  ConsumerStats cs;
  k.spawn("producer", make_producer(buffer, channel, pc, &ps));
  k.spawn("consumer", make_consumer(buffer, channel, cc, &cs));
  k.run_until(kEpoch + minutes(10));
  k.shutdown();
  EXPECT_GT(ps.files_completed, 30);  // ~1 file per ~10.25 s
  EXPECT_GT(cs.files_consumed, 30);
  EXPECT_EQ(ps.discipline.collisions, 0);
  // Consumer keeps up: buffer nearly empty at any instant.
  EXPECT_LT(buffer.used_bytes(), 4 << 20);
}

TEST(ProducerConsumerTest, TinyBufferCausesCollisions) {
  sim::Kernel k;
  FsBuffer buffer(k, 256 << 10);  // 256 KB: most 0-1 MB files cannot fit
  IoChannel channel(k, IoChannelConfig{});
  ProducerConfig pc;
  pc.discipline = "aloha";
  pc.name_prefix = "p0";
  pc.compute_min = pc.compute_max = sec(1);
  ProducerStats ps;
  ConsumerConfig cc;
  ConsumerStats cs;
  k.spawn("producer", make_producer(buffer, channel, pc, &ps));
  k.spawn("consumer", make_consumer(buffer, channel, cc, &cs));
  k.run_until(kEpoch + minutes(10));
  k.shutdown();
  EXPECT_GT(ps.discipline.collisions, 0);
  EXPECT_GT(ps.files_completed, 0);  // small files still make it
  // No leaked partials pinning the buffer forever: everything in the buffer
  // is either complete (awaiting consumption) or actively being written.
  EXPECT_LE(buffer.incomplete_count(), 1);
}

TEST(ProducerConsumerTest, EthernetProducerAvoidsCollisions) {
  auto run = [](const char* discipline, std::int64_t* collisions,
                std::int64_t* consumed) {
    sim::Kernel k(17);
    FsBuffer buffer(k, 2 << 20);  // cramped 2 MB buffer
    IoChannel channel(k, IoChannelConfig{});
    ConsumerConfig cc;
    cc.read_bytes_per_second = 256 << 10;  // slow consumer
    ConsumerStats cs;
    std::vector<std::unique_ptr<ProducerStats>> stats;
    for (int i = 0; i < 4; ++i) {
      ProducerConfig pc;
      pc.discipline = discipline;
      pc.compute_min = sec(1);
      pc.compute_max = sec(3);
      pc.name_prefix = "p" + std::to_string(i);
      stats.push_back(std::make_unique<ProducerStats>());
      k.spawn("producer" + std::to_string(i),
              make_producer(buffer, channel, pc, stats.back().get()));
    }
    k.spawn("consumer", make_consumer(buffer, channel, cc, &cs));
    k.run_until(kEpoch + minutes(20));
    k.shutdown();
    *collisions = 0;
    for (const auto& s : stats) *collisions += s->discipline.collisions;
    *consumed = cs.files_consumed;
  };
  std::int64_t fixed_collisions = 0, fixed_consumed = 0;
  std::int64_t ether_collisions = 0, ether_consumed = 0;
  run("fixed", &fixed_collisions, &fixed_consumed);
  run("ethernet", &ether_collisions, &ether_consumed);
  EXPECT_GT(fixed_collisions, 10 * std::max<std::int64_t>(ether_collisions, 1))
      << "fixed=" << fixed_collisions << " ethernet=" << ether_collisions;
  EXPECT_GT(ether_consumed, 0);
}

// ---------------------------------------------------------------- readers

std::vector<FileServerConfig> paper_farm() {
  FileServerConfig a;
  a.name = "xxx";
  FileServerConfig b;
  b.name = "yyy";
  FileServerConfig hole;
  hole.name = "zzz";
  hole.black_hole = true;
  return {a, b, hole};
}

TEST(ReaderTest, AlohaReaderSuffersBlackHoleStalls) {
  sim::Kernel k(3);
  ServerFarm farm(k, paper_farm());
  ReaderConfig rc;
  rc.discipline = "aloha";
  ReaderStats stats;
  k.spawn("reader", make_reader(farm, rc, &stats));
  k.run_until(kEpoch + sec(900));
  k.shutdown();
  EXPECT_GT(stats.transfers, 10);
  EXPECT_GT(stats.collisions, 0);  // it hit the hole and paid 60 s each time
  EXPECT_EQ(stats.deferrals, 0);   // aloha never probes
}

TEST(ReaderTest, EthernetReaderDefersInsteadOfStalling) {
  sim::Kernel k(3);
  ServerFarm farm(k, paper_farm());
  ReaderConfig rc;
  rc.discipline = "ethernet";
  ReaderStats stats;
  k.spawn("reader", make_reader(farm, rc, &stats));
  k.run_until(kEpoch + sec(900));
  k.shutdown();
  EXPECT_GT(stats.transfers, 10);
  EXPECT_GT(stats.deferrals, 0);    // probes caught the hole
  EXPECT_EQ(stats.collisions, 0);   // and it never paid the 60 s price
}

TEST(ReaderTest, EthernetOutperformsAlohaUnderBlackHole) {
  auto run = [](const char* discipline) {
    sim::Kernel k(9);
    ServerFarm farm(k, paper_farm());
    std::vector<std::unique_ptr<ReaderStats>> stats;
    for (int i = 0; i < 3; ++i) {
      ReaderConfig rc;
      rc.discipline = discipline;
      stats.push_back(std::make_unique<ReaderStats>());
      k.spawn("reader" + std::to_string(i),
              make_reader(farm, rc, stats.back().get()));
    }
    k.run_until(kEpoch + sec(900));
    k.shutdown();
    std::int64_t transfers = 0;
    for (const auto& s : stats) transfers += s->transfers;
    return transfers;
  };
  const std::int64_t aloha = run("aloha");
  const std::int64_t ethernet = run("ethernet");
  EXPECT_GT(ethernet, aloha) << "aloha=" << aloha << " ethernet=" << ethernet;
}

TEST(ReaderTest, AllBlackHolesMakesNoProgressButTerminates) {
  sim::Kernel k;
  FileServerConfig hole;
  hole.name = "h";
  hole.black_hole = true;
  ServerFarm farm(k, {hole, hole, hole});
  ReaderConfig rc;
  rc.discipline = "ethernet";
  ReaderStats stats;
  k.spawn("reader", make_reader(farm, rc, &stats));
  k.run_until(kEpoch + sec(600));
  k.shutdown();
  EXPECT_EQ(stats.transfers, 0);
  EXPECT_GT(stats.deferrals, 3);  // kept probing, never hung
}

}  // namespace
}  // namespace ethergrid::grid
