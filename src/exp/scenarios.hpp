// Scenario runners: one function per figure-shaped experiment.
//
// Each runner builds a fresh simulated world (kernel + substrate + clients),
// runs it for the configured virtual window, shuts the world down, and
// returns the series the paper plots.  All runs are deterministic in the
// seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/clients.hpp"
#include "grid/fileserver.hpp"
#include "grid/schedd.hpp"
#include "obs/observer.hpp"
#include "sim/fault_plan.hpp"
#include "sim/kernel.hpp"
#include "sim/shard.hpp"
#include "util/time.hpp"

namespace ethergrid::exp {

// Every scenario config carries an optional fault plan.  When non-empty,
// the runner builds one core::FaultInjector from the kernel's "faults"
// stream and installs it on every substrate, so the whole run -- workload
// and injected faults alike -- replays identically from (seed, plan).
// Results report faults_injected plus the injector's audit text (one line
// per fired fault, in firing order): byte-equal audits are the replay
// check the chaos suite asserts.

// ------------------------------------------------ scenario 1: submission

struct SubmitScenarioConfig {
  grid::ScheddConfig schedd;        // paper defaults from ScheddConfig
  grid::SubmitterConfig submitter;  // .discipline overridden by the runners
  std::uint64_t seed = 42;
  sim::KernelOptions kernel;        // stacks; results identical
  sim::FaultPlan faults;            // sites: schedd.submit
  // Observability: installed on the substrate (crashes, fd-table
  // exhaustion) and bridged from the fault injector (kFault events).
  // Not owned; nullptr off.
  obs::ObserverSet* observers = nullptr;
};

// Discipline selection: every runner takes the discipline by registry name
// ("fixed" / "aloha" / "ethernet" / ...); result structs carry the name.

// Figure 1: jobs submitted in `window` by `submitters` clients.
struct SubmitScalePoint {
  std::string discipline;
  int submitters = 0;
  std::int64_t jobs_submitted = 0;
  int schedd_crashes = 0;
  std::int64_t fd_low_watermark = 0;
  std::int64_t faults_injected = 0;
  std::string fault_audit;
  std::uint64_t kernel_events = 0;  // wakeups processed; for bench reports
};

SubmitScalePoint run_submit_scale_point(const SubmitScenarioConfig& config,
                                        std::string_view discipline,
                                        int submitters,
                                        Duration window = minutes(5));

// ----------------------------------- scenario 1 at scale: the sharded grid
//
// The same submission workload, partitioned by substrate across a
// sim::ShardedKernel: `sites` schedds, each with its attached submitters,
// placed weight-balanced on the shards (grid::derive_placement).  Optionally
// each
// site also runs `remote_per_site` submitters that target the NEXT site's
// schedd through a cross-shard RPC (request and reply both ride the
// mailbox, so every window carries traffic across every shard pair).
//
// The world is built partition-independently: every per-site name (fault
// site, schedd service stream, submitter RNG stream) embeds the site
// index, and every shard kernel is constructed with the same seed, so a
// site's draws -- and therefore its stats and audit lines -- do not depend
// on how many shards the world was split across.  Pinned by
// tests/sim/backend_equivalence_test.cpp: per-site stats and the merged
// fault audit are identical for shards=1, shards=4/threads=1 and
// shards=4/threads=4.
struct ShardedSubmitConfig {
  std::size_t sites = 4;        // one schedd per site
  int submitters_per_site = 100;
  int remote_per_site = 0;      // cross-shard submitters per site
  grid::ScheddConfig schedd;    // base config; per-site names applied on top
  grid::SubmitterConfig submitter;  // .discipline overridden by the runner
  // One-way latency of the cross-shard submit RPC.  When remote
  // submitters exist, the runner derives the sharded kernel's lookahead
  // from this (grid::derive_placement): the minimum cross-site latency is
  // the largest conservative horizon.
  Duration rpc_latency = msec(50);
  std::uint64_t seed = 42;
  // shards / threads / kernel options.  `sharded.lookahead` is only the
  // fallback for worlds with no cross-site lanes; otherwise the derived
  // value above wins.
  sim::ShardedKernelOptions sharded;
  sim::FaultPlan faults;  // sites: schedd<i>.submit, site<i>.bulk.write
  // Optional per-site fluid bulk lane: `bulk_per_site` senders stream files
  // over a shard-local fluid link "site<i>.bulk" (plus a per-site
  // ReservationBook when bulk.discipline resolves to a reservation
  // discipline).  Flows are shard-local per the FluidResource sharding
  // contract, so per-site bulk stats must be partition-independent too.
  int bulk_per_site = 0;
  double bulk_link_bps = 4.0 * 1024 * 1024;
  grid::BulkSenderConfig bulk;
  // When set, each shard records a TraceRecorder lane (pid = shard + 1)
  // and the runner returns the merged Chrome-trace JSON.  The merged bytes
  // are deterministic in (seed, config) and independent of thread count.
  bool record_trace = false;
};

struct ShardedSubmitSite {
  std::int64_t jobs_submitted = 0;
  int schedd_crashes = 0;
  std::int64_t fd_low_watermark = 0;
  std::int64_t bulk_files = 0;   // per-site fluid bulk lane (bulk_per_site)
  std::int64_t bulk_bytes = 0;
  std::int64_t bulk_grants = 0;
};

struct ShardedSubmitResult {
  std::string discipline;
  std::size_t sites = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::vector<ShardedSubmitSite> by_site;
  std::int64_t jobs_total = 0;
  int schedd_crashes = 0;
  std::int64_t remote_jobs = 0;         // successes over the cross-shard RPC
  std::int64_t remote_tries_failed = 0;
  std::int64_t bulk_bytes_total = 0;    // summed over the per-site bulk lanes
  std::int64_t bulk_grants_total = 0;
  std::int64_t faults_injected = 0;
  std::string fault_audit;          // core::merged_audit_text over all shards
  std::uint64_t kernel_events = 0;  // wakeups, summed over shards
  std::uint64_t windows = 0;        // conservative windows run
  std::uint64_t messages_delivered = 0;  // cross-shard mailbox deliveries
  std::uint64_t barrier_parks = 0;  // ShardedKernel::barrier_parks()
  std::string trace_json;           // merged Chrome trace (record_trace)
};

ShardedSubmitResult run_sharded_submit(const ShardedSubmitConfig& config,
                                       std::string_view discipline,
                                       Duration window = minutes(5));

// Figures 2-3: timeline of available FDs and cumulative jobs.
struct TimelinePoint {
  double t_seconds = 0;
  double available_fds = 0;
  double jobs_submitted = 0;
};

struct SubmitterTimeline {
  std::string discipline;
  int submitters = 0;
  std::vector<TimelinePoint> points;
  std::int64_t jobs_total = 0;
  int schedd_crashes = 0;
  std::int64_t faults_injected = 0;
  std::string fault_audit;
  std::uint64_t kernel_events = 0;  // wakeups processed; for bench reports
};

SubmitterTimeline run_submitter_timeline(const SubmitScenarioConfig& config,
                                         std::string_view discipline,
                                         int submitters = 400,
                                         Duration duration = sec(1800),
                                         Duration sample_every = sec(10));

// ------------------------------------------- scenario 2: the disk buffer

struct BufferScenarioConfig {
  std::int64_t buffer_bytes = 120 << 20;  // "120 MB"
  grid::IoChannelConfig channel;          // the shared filesystem medium
  grid::ProducerConfig producer;          // .discipline overridden
  grid::ConsumerConfig consumer;
  std::uint64_t seed = 42;
  sim::KernelOptions kernel;  // stacks; results identical
  sim::FaultPlan faults;  // sites: iochannel.write, fsbuffer.{create,append,rename}
  // Observability: ENOSPC collisions plus bridged kFault events.  Not
  // owned; nullptr off.
  obs::ObserverSet* observers = nullptr;
};

// Figures 4-5: one sweep point.
struct BufferSweepPoint {
  std::string discipline;
  int producers = 0;
  std::int64_t files_consumed = 0;
  std::int64_t bytes_consumed = 0;
  std::int64_t collisions = 0;   // failed writes (producer-observed)
  std::int64_t deferrals = 0;    // Ethernet carrier-sense deferrals
  std::int64_t files_completed = 0;
  std::int64_t tries_failed = 0;  // wasted producer attempts
  std::int64_t faults_injected = 0;
  std::string fault_audit;
  std::uint64_t kernel_events = 0;  // wakeups processed; for bench reports
};

BufferSweepPoint run_buffer_point(const BufferScenarioConfig& config,
                                  std::string_view discipline, int producers,
                                  Duration window = sec(600));

// -------------------------------------------- scenario 3: the black hole

struct ReaderScenarioConfig {
  std::vector<grid::FileServerConfig> servers;  // default paper farm
  grid::ReaderConfig reader;                    // .discipline overridden
  int readers = 3;
  std::uint64_t seed = 42;
  sim::KernelOptions kernel;  // stacks; results identical
  sim::FaultPlan faults;  // sites: fileserver.<name>.{fetch,flag}
  // Observability: transfer collisions, carrier-sense probes, bridged
  // kFault events.  Not owned; nullptr off.
  obs::ObserverSet* observers = nullptr;

  // "three web servers ... one of the three is a permanent black hole"
  static std::vector<grid::FileServerConfig> paper_farm();
};

// Figures 6-7: cumulative event series sampled over time.
struct ReaderTimelinePoint {
  double t_seconds = 0;
  std::int64_t transfers = 0;
  std::int64_t collisions = 0;
  std::int64_t deferrals = 0;
};

struct ReaderTimeline {
  std::string discipline;
  std::vector<ReaderTimelinePoint> points;
  std::int64_t transfers_total = 0;
  std::int64_t collisions_total = 0;
  std::int64_t deferrals_total = 0;
  std::int64_t faults_injected = 0;
  std::string fault_audit;
  std::uint64_t kernel_events = 0;  // wakeups processed; for bench reports
};

ReaderTimeline run_reader_timeline(const ReaderScenarioConfig& config,
                                   std::string_view discipline,
                                   Duration duration = sec(900),
                                   Duration sample_every = sec(30));

// ------------------------------------------ scenario 4: bulk transfers

// Saturating bulk transfers over one shared *fluid* link: `senders`
// clients push files continuously; the link divides its bandwidth by
// weighted max-min fairness.  All four disciplines run here -- this is the
// scenario where "reservation" means something.
struct BulkScenarioConfig {
  double link_bps = 10.0 * 1024 * 1024;  // shared wide-area link
  // Fraction of the link the ReservationBook may promise.  1.0 books the
  // whole link (Chen & Primet); lower it to keep best-effort headroom when
  // mixing reserved and unreserved senders.
  double reservable_fraction = 1.0;
  grid::ReservationBookConfig book;  // reservable_bps derived when 0
  grid::BulkSenderConfig sender;     // .discipline overridden by the runner
  std::uint64_t seed = 42;
  sim::KernelOptions kernel;  // stacks; results identical
  sim::FaultPlan faults;      // sites: bulk.write
  obs::ObserverSet* observers = nullptr;
};

// The fig8 comparison: goodput and Jain fairness per discipline.
struct BulkSweepPoint {
  std::string discipline;
  int senders = 0;
  std::int64_t files_sent = 0;
  std::int64_t bytes_sent = 0;
  double goodput_bps = 0;    // bytes_sent / window
  double jain_fairness = 0;  // (sum x)^2 / (n * sum x^2) over sender bytes
  std::int64_t collisions = 0;       // failed/timed-out attempts
  std::int64_t deferrals = 0;        // carrier-sense deferrals (ethernet)
  std::int64_t attempt_timeouts = 0; // starved streams unwound
  std::int64_t tries_failed = 0;     // whole budgets expired
  std::int64_t grants = 0;           // reservation only
  std::int64_t rejects = 0;
  std::vector<std::int64_t> per_sender_bytes;
  std::int64_t faults_injected = 0;
  std::string fault_audit;
  std::uint64_t kernel_events = 0;
};

BulkSweepPoint run_bulk_point(const BulkScenarioConfig& config,
                              std::string_view discipline, int senders,
                              Duration window = sec(600));

}  // namespace ethergrid::exp
