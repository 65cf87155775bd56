#include "exp/scenarios.hpp"

#include <memory>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "core/sim_clock.hpp"
#include "grid/placement.hpp"
#include "obs/trace.hpp"
#include "sim/kernel.hpp"

namespace ethergrid::exp {

namespace {

// One injector per world, fed by the kernel's "faults" stream: derived by
// name, so adding fault rules perturbs nothing else in the run.  Null when
// the plan is empty -- substrates then skip the consultation entirely.
std::unique_ptr<core::FaultInjector> make_injector(sim::Kernel& kernel,
                                                   const sim::FaultPlan& plan) {
  if (plan.rules().empty()) return nullptr;
  return std::make_unique<core::FaultInjector>(plan,
                                               kernel.rng().stream("faults"));
}

// Bridges fired faults onto the observability channel as kFault events.
// The "<site> <kind>" label matches shell::fault_observer, so an AuditLog
// listening on the set shows the same rows as the legacy adapter.
void bridge_faults(core::FaultInjector* faults, obs::ObserverSet* observers) {
  if (!faults || !observers) return;
  faults->set_observer([observers](const core::FaultEvent& fe) {
    obs::ObsEvent event;
    event.kind = obs::ObsEvent::Kind::kFault;
    event.time = fe.time;
    // Fault firings are rare; interning per emission is fine here.
    event.site = obs::intern_site(fe.site + " " + fe.kind);
    event.detail = fe.detail;
    observers->on_event(event);
  });
}

// Jain's fairness index over per-sender byte counts: (sum x)^2 / (n sum x^2).
double jain_index(const std::vector<std::int64_t>& xs) {
  if (xs.empty()) return 0;
  double sum = 0;
  double sum_sq = 0;
  for (std::int64_t x : xs) {
    sum += double(x);
    sum_sq += double(x) * double(x);
  }
  if (sum_sq == 0) return 1;  // nobody moved anything: trivially fair
  return sum * sum / (double(xs.size()) * sum_sq);
}

// Spawns n submitters against a fresh schedd world; returns after `window`.
struct SubmitWorld {
  SubmitWorld(const SubmitScenarioConfig& config, std::string_view discipline,
              int submitters)
      : kernel(config.seed, config.kernel),
        schedd(kernel, config.schedd),
        faults(make_injector(kernel, config.faults)) {
    schedd.set_fault_injector(faults.get());
    schedd.set_observers(config.observers);
    bridge_faults(faults.get(), config.observers);
    grid::SubmitterConfig sc = config.submitter;
    sc.discipline = std::string(discipline);
    stats.resize(std::size_t(submitters));
    for (int i = 0; i < submitters; ++i) {
      kernel.spawn("submitter" + std::to_string(i),
                   grid::make_submitter(schedd, sc, &stats[std::size_t(i)]));
    }
  }

  sim::Kernel kernel;
  grid::Schedd schedd;
  std::unique_ptr<core::FaultInjector> faults;
  std::vector<grid::SubmitterStats> stats;
};

// ----------------------------------- scenario 1 at scale: the sharded grid

// Reply rendezvous of the cross-shard submit RPC.  Heap-allocated and held
// by shared_ptr from three places -- the waiting client, the request
// payload, and the reply payload -- so it survives whichever of them dies
// first (client killed or timed out mid-wait, message dropped at
// shutdown).  `reply` belongs to the CLIENT's kernel; set() runs on the
// client's shard via the reply message.
struct SubmitRpc {
  explicit SubmitRpc(sim::Kernel& client_kernel) : reply(client_kernel) {}
  sim::Event reply;
  Status result = Status::unavailable("rpc dropped");
};

// World topology -> placement: every site carries the same client count
// (locals + remotes + bulk senders), and the only cross-site lanes are the
// submit RPC's request and reply, both at config.rpc_latency.  The derived
// lookahead therefore equals rpc_latency when remotes exist; without them
// the hand-tuned options value stays (pure batching knob).
grid::Placement derive_sharded_placement(const ShardedSubmitConfig& config) {
  grid::PlacementSpec spec;
  spec.shards = config.sharded.shards;
  spec.site_weights.assign(
      config.sites, std::size_t(config.submitters_per_site) +
                        std::size_t(config.remote_per_site) +
                        std::size_t(config.bulk_per_site));
  if (config.remote_per_site > 0 && config.sites > 1) {
    spec.cross_site_latencies = {config.rpc_latency, config.rpc_latency};
  }
  spec.fallback_lookahead = config.sharded.lookahead;
  return grid::derive_placement(spec);
}

sim::ShardedKernelOptions with_placement(sim::ShardedKernelOptions options,
                                         const grid::Placement& placement) {
  options.lookahead = placement.lookahead;
  return options;
}

// Sharded fig1 world: `sites` schedd worlds placed weight-balanced over
// the shards (grid::derive_placement), each with local submitters and
// (optionally) remote submitters whose submissions target the next site
// over the mailbox.
struct ShardedSubmitWorld {
  ShardedSubmitWorld(const ShardedSubmitConfig& config,
                     std::string_view discipline)
      : config(config),
        placement(derive_sharded_placement(config)),
        sk(config.seed, with_placement(config.sharded, placement)) {
    const std::size_t shards = sk.shard_count();
    // Per-shard observability and fault injection.  Every injector is
    // built from the SAME root stream (each shard kernel has the same
    // seed), so a site's per-site fault stream -- derived by name -- is
    // identical no matter which shard its schedd landed on.
    for (std::size_t s = 0; s < shards; ++s) {
      if (config.record_trace) {
        traces.push_back(std::make_unique<obs::TraceRecorder>(
            "shard" + std::to_string(s), int(s) + 1));
        observers.push_back(std::make_unique<obs::ObserverSet>());
        observers.back()->add(traces.back().get());
      }
      injectors.push_back(make_injector(sk.shard(s), config.faults));
      if (config.record_trace) {
        bridge_faults(injectors.back().get(), observers.back().get());
      }
    }
    grid::SubmitterConfig sc = config.submitter;
    sc.discipline = std::string(discipline);
    local_stats.resize(config.sites * std::size_t(config.submitters_per_site));
    remote_stats.resize(config.sites * std::size_t(config.remote_per_site));
    for (std::size_t site = 0; site < config.sites; ++site) {
      const std::size_t shard = placement.site_shard(site);
      schedds.push_back(std::make_unique<grid::Schedd>(
          sk.shard(shard), grid::site_schedd_config(config.schedd, site)));
      grid::Schedd& schedd = *schedds.back();
      schedd.set_fault_injector(injectors[shard].get());
      if (config.record_trace) schedd.set_observers(observers[shard].get());
      for (int j = 0; j < config.submitters_per_site; ++j) {
        const std::size_t idx =
            site * std::size_t(config.submitters_per_site) + std::size_t(j);
        spawn_with_stream(
            shard, "site" + std::to_string(site) + ".submitter" +
                       std::to_string(j),
            grid::make_submitter(schedd, sc, &local_stats[idx]));
      }
    }
    // Remote submitters spawn after every schedd exists (they target site
    // (site + 1) % sites).  Their RNG stream is name-derived like the
    // locals', so the remote workload is partition-independent too.
    for (std::size_t site = 0; site < config.sites; ++site) {
      const std::size_t shard = placement.site_shard(site);
      for (int j = 0; j < config.remote_per_site; ++j) {
        const std::size_t idx =
            site * std::size_t(config.remote_per_site) + std::size_t(j);
        spawn_with_stream(shard,
                          "site" + std::to_string(site) + ".remote" +
                              std::to_string(j),
                          remote_submitter(site, sc, &remote_stats[idx]));
      }
    }
    // Per-site fluid bulk lane: a shard-local fluid link (flows never
    // cross a shard boundary) and `bulk_per_site` senders per site.  Every
    // name -- the link's fault site, the senders' RNG streams, the book's
    // observer site -- is derived from the site index, so the lane is
    // partition-independent like everything above it.
    if (config.bulk_per_site > 0) {
      const grid::DisciplineTraits& bulk_traits =
          grid::resolve_discipline(config.bulk.discipline);
      bulk_stats.resize(config.sites * std::size_t(config.bulk_per_site));
      for (std::size_t site = 0; site < config.sites; ++site) {
        const std::size_t shard = placement.site_shard(site);
        grid::SubstrateConfig lc;
        lc.site = "site" + std::to_string(site) + ".bulk";
        lc.bytes_per_second = config.bulk_link_bps;
        lc.model = grid::CapacityModel::kFluid;
        bulk_links.push_back(
            std::make_unique<grid::Substrate>(sk.shard(shard), lc));
        grid::Substrate& link = *bulk_links.back();
        link.set_fault_injector(injectors[shard].get());
        if (config.record_trace) link.set_observers(observers[shard].get());
        grid::ReservationBook* book = nullptr;
        if (bulk_traits.reservation) {
          grid::ReservationBookConfig bc;
          bc.reservable_bps = config.bulk_link_bps;
          bc.site = lc.site + ".book";
          bulk_books.push_back(std::make_unique<grid::ReservationBook>(bc));
          book = bulk_books.back().get();
          if (config.record_trace) {
            book->set_observers(observers[shard].get());
          }
        }
        for (int j = 0; j < config.bulk_per_site; ++j) {
          const std::size_t idx =
              site * std::size_t(config.bulk_per_site) + std::size_t(j);
          spawn_with_stream(
              shard,
              "site" + std::to_string(site) + ".bulk" + std::to_string(j),
              grid::make_bulk_sender(link, book, config.bulk,
                                     &bulk_stats[idx]));
        }
      }
    }
  }

  ~ShardedSubmitWorld() {
    // Processes hold references into schedds/injectors, which are
    // destroyed before sk (declared after it): kill them first.
    sk.shutdown();
  }

  // Spawns `body` under a per-process RNG replaced by the name-derived
  // stream: the default per-process stream depends on spawn ORDER, which
  // varies with the partition, so partition-independent worlds must pin
  // it by name instead.  Client bodies copy ctx.rng() at startup, so
  // overwriting before the body runs covers every draw.
  void spawn_with_stream(std::size_t shard, std::string name,
                         sim::ProcessBody body) {
    Rng stream = sk.shard(0).rng().stream(name);
    sk.spawn(shard, std::move(name),
             [stream, body = std::move(body)](sim::Context& ctx) {
               ctx.rng() = stream;
               body(ctx);
             });
  }

  // A submitter whose schedd lives on the next site over: each submission
  // is a request message to the target shard (which performs the actual
  // Schedd::submit there) plus a reply message carrying the status back.
  // No carrier sense even for the Ethernet kind -- a remote client cannot
  // cheaply probe the far descriptor table, and reading it directly would
  // race with the owning shard's window -- so Ethernet remotes rely on
  // backoff alone.
  sim::ProcessBody remote_submitter(std::size_t src_site,
                                    const grid::SubmitterConfig& sc,
                                    grid::SubmitterStats* stats) {
    const std::size_t dst_site = (src_site + 1) % config.sites;
    const std::size_t src_shard = placement.site_shard(src_site);
    const std::size_t dst_shard = placement.site_shard(dst_site);
    grid::Schedd* dst = schedds[dst_site].get();
    sim::ShardedKernel* k = &sk;
    const Duration latency = config.rpc_latency;
    return [k, sc, stats, dst, src_site, dst_site, src_shard, dst_shard,
            latency](sim::Context& ctx) {
      core::SimClock clock(ctx);
      Rng rng = ctx.rng();
      const grid::DisciplineTraits& traits =
          grid::resolve_discipline(sc.discipline);
      const core::TryOptions options =
          traits.try_options(sc.try_budget, sc.backoff);
      const core::Discipline discipline{traits.name, options, nullptr};
      sim::Kernel& home = k->shard(src_shard);
      const std::string rpc_name =
          "rpc:site" + std::to_string(src_site) + "->" +
          std::to_string(dst_site);
      while (true) {
        ctx.sleep(sc.startup);
        Status s = core::run_with_discipline(
            clock, rng, discipline,
            [&](TimePoint) {
              auto state = std::make_shared<SubmitRpc>(home);
              k->post(src_shard, grid::site_mailbox_id(src_site), dst_shard,
                      latency, rpc_name,
                      [k, state, dst, dst_site, dst_shard, src_shard,
                       latency](sim::Context& rctx) {
                        Status result = dst->submit(rctx);
                        k->post(dst_shard, grid::site_mailbox_id(dst_site),
                                src_shard, latency, "rpc-reply",
                                [state, result](sim::Context&) {
                                  state->result = result;
                                  state->reply.set();
                                });
                      });
              ctx.wait(state->reply);
              return state->result;
            },
            &stats->discipline);
        if (s.ok()) {
          ++stats->jobs_succeeded;
        } else {
          ++stats->tries_failed;
        }
      }
    };
  }

  const ShardedSubmitConfig config;
  const grid::Placement placement;  // declared before sk: derives lookahead
  sim::ShardedKernel sk;
  std::vector<std::unique_ptr<obs::TraceRecorder>> traces;
  std::vector<std::unique_ptr<obs::ObserverSet>> observers;
  std::vector<std::unique_ptr<core::FaultInjector>> injectors;
  std::vector<std::unique_ptr<grid::Schedd>> schedds;
  std::vector<std::unique_ptr<grid::Substrate>> bulk_links;
  std::vector<std::unique_ptr<grid::ReservationBook>> bulk_books;
  std::vector<grid::SubmitterStats> local_stats;
  std::vector<grid::SubmitterStats> remote_stats;
  std::vector<grid::BulkSenderStats> bulk_stats;
};

}  // namespace

ShardedSubmitResult run_sharded_submit(const ShardedSubmitConfig& config,
                                       std::string_view discipline,
                                       Duration window) {
  ShardedSubmitWorld world(config, discipline);
  world.sk.run_until(kEpoch + window);

  ShardedSubmitResult result;
  result.discipline = std::string(discipline);
  result.sites = config.sites;
  result.shards = world.sk.shard_count();
  result.threads = world.sk.thread_count();
  for (std::size_t i = 0; i < world.schedds.size(); ++i) {
    ShardedSubmitSite site;
    site.jobs_submitted = world.schedds[i]->jobs_submitted();
    site.schedd_crashes = world.schedds[i]->crashes();
    site.fd_low_watermark = world.schedds[i]->fd_table().low_watermark();
    for (int j = 0; j < config.bulk_per_site; ++j) {
      const grid::BulkSenderStats& bs =
          world.bulk_stats[i * std::size_t(config.bulk_per_site) +
                           std::size_t(j)];
      site.bulk_files += bs.files_sent;
      site.bulk_bytes += bs.bytes_sent;
      site.bulk_grants += bs.grants;
    }
    result.by_site.push_back(site);
    result.jobs_total += site.jobs_submitted;
    result.schedd_crashes += site.schedd_crashes;
    result.bulk_bytes_total += site.bulk_bytes;
    result.bulk_grants_total += site.bulk_grants;
  }
  for (const auto& stats : world.remote_stats) {
    result.remote_jobs += stats.jobs_succeeded;
    result.remote_tries_failed += stats.tries_failed;
  }
  std::vector<core::FaultEvent> fault_events;
  for (const auto& injector : world.injectors) {
    if (!injector) continue;
    result.faults_injected += injector->fired_total();
    for (core::FaultEvent& event : injector->events()) {
      fault_events.push_back(std::move(event));
    }
  }
  if (!fault_events.empty()) {
    result.fault_audit = core::merged_audit_text(std::move(fault_events));
  }
  result.kernel_events = world.sk.events_processed();
  result.windows = world.sk.windows_run();
  result.messages_delivered = world.sk.messages_delivered();
  result.barrier_parks = world.sk.barrier_parks();
  world.sk.shutdown();
  if (config.record_trace) {
    std::vector<std::string> jsons;
    jsons.reserve(world.traces.size());
    for (const auto& trace : world.traces) jsons.push_back(trace->to_json());
    result.trace_json = obs::merge_chrome_traces(jsons);
  }
  return result;
}

SubmitScalePoint run_submit_scale_point(const SubmitScenarioConfig& config,
                                        std::string_view discipline,
                                        int submitters, Duration window) {
  SubmitWorld world(config, discipline, submitters);
  world.kernel.run_until(kEpoch + window);
  SubmitScalePoint point;
  point.discipline = std::string(discipline);
  point.submitters = submitters;
  point.jobs_submitted = world.schedd.jobs_submitted();
  point.schedd_crashes = world.schedd.crashes();
  point.fd_low_watermark = world.schedd.fd_table().low_watermark();
  if (world.faults) {
    point.faults_injected = world.faults->fired_total();
    point.fault_audit = world.faults->audit_text();
  }
  point.kernel_events = world.kernel.events_processed();
  world.kernel.shutdown();
  return point;
}

SubmitterTimeline run_submitter_timeline(const SubmitScenarioConfig& config,
                                         std::string_view discipline,
                                         int submitters, Duration duration,
                                         Duration sample_every) {
  SubmitWorld world(config, discipline, submitters);
  SubmitterTimeline timeline;
  timeline.discipline = std::string(discipline);
  timeline.submitters = submitters;
  for (TimePoint t = kEpoch; t <= kEpoch + duration; t += sample_every) {
    world.kernel.run_until(t);
    timeline.points.push_back(TimelinePoint{
        to_seconds(t), double(world.schedd.fd_table().available()),
        double(world.schedd.jobs_submitted())});
  }
  timeline.jobs_total = world.schedd.jobs_submitted();
  timeline.schedd_crashes = world.schedd.crashes();
  if (world.faults) {
    timeline.faults_injected = world.faults->fired_total();
    timeline.fault_audit = world.faults->audit_text();
  }
  timeline.kernel_events = world.kernel.events_processed();
  world.kernel.shutdown();
  return timeline;
}

BufferSweepPoint run_buffer_point(const BufferScenarioConfig& config,
                                  std::string_view discipline, int producers,
                                  Duration window) {
  sim::Kernel kernel(config.seed, config.kernel);
  grid::FsBuffer buffer(kernel, config.buffer_bytes);
  grid::IoChannel channel(kernel, config.channel);
  auto faults = make_injector(kernel, config.faults);
  channel.set_fault_injector(faults.get());
  buffer.set_fault_injector(faults.get());
  buffer.set_observers(config.observers);
  bridge_faults(faults.get(), config.observers);
  grid::ConsumerStats consumer_stats;
  kernel.spawn("consumer", grid::make_consumer(buffer, channel,
                                               config.consumer,
                                               &consumer_stats));
  std::vector<std::unique_ptr<grid::ProducerStats>> producer_stats;
  for (int i = 0; i < producers; ++i) {
    grid::ProducerConfig pc = config.producer;
    pc.discipline = std::string(discipline);
    pc.name_prefix = "p" + std::to_string(i);
    producer_stats.push_back(std::make_unique<grid::ProducerStats>());
    kernel.spawn("producer" + std::to_string(i),
                 grid::make_producer(buffer, channel, pc,
                                     producer_stats.back().get()));
  }
  kernel.run_until(kEpoch + window);

  BufferSweepPoint point;
  point.discipline = std::string(discipline);
  point.producers = producers;
  point.files_consumed = consumer_stats.files_consumed;
  point.bytes_consumed = consumer_stats.bytes_consumed;
  for (const auto& stats : producer_stats) {
    point.collisions += stats->discipline.collisions;
    point.deferrals += stats->discipline.deferrals;
    point.files_completed += stats->files_completed;
    point.tries_failed += stats->tries_failed;
  }
  if (faults) {
    point.faults_injected = faults->fired_total();
    point.fault_audit = faults->audit_text();
  }
  point.kernel_events = kernel.events_processed();
  kernel.shutdown();
  return point;
}

std::vector<grid::FileServerConfig> ReaderScenarioConfig::paper_farm() {
  grid::FileServerConfig xxx;
  xxx.name = "xxx";
  grid::FileServerConfig yyy;
  yyy.name = "yyy";
  grid::FileServerConfig zzz;
  zzz.name = "zzz";
  zzz.black_hole = true;
  return {xxx, yyy, zzz};
}

ReaderTimeline run_reader_timeline(const ReaderScenarioConfig& config,
                                   std::string_view discipline,
                                   Duration duration, Duration sample_every) {
  sim::Kernel kernel(config.seed, config.kernel);
  auto servers = config.servers;
  if (servers.empty()) servers = ReaderScenarioConfig::paper_farm();
  grid::ServerFarm farm(kernel, servers);
  auto faults = make_injector(kernel, config.faults);
  if (faults) farm.set_fault_injector(faults.get());
  farm.set_observers(config.observers);
  bridge_faults(faults.get(), config.observers);
  std::vector<std::unique_ptr<grid::ReaderStats>> stats;
  for (int i = 0; i < config.readers; ++i) {
    grid::ReaderConfig rc = config.reader;
    rc.discipline = std::string(discipline);
    stats.push_back(std::make_unique<grid::ReaderStats>());
    kernel.spawn("reader" + std::to_string(i),
                 grid::make_reader(farm, rc, stats.back().get()));
  }

  ReaderTimeline timeline;
  timeline.discipline = std::string(discipline);
  for (TimePoint t = kEpoch; t <= kEpoch + duration; t += sample_every) {
    kernel.run_until(t);
    ReaderTimelinePoint point;
    point.t_seconds = to_seconds(t);
    for (const auto& s : stats) {
      point.transfers += s->transfers;
      point.collisions += s->collisions;
      point.deferrals += s->deferrals;
    }
    timeline.points.push_back(point);
  }
  for (const auto& s : stats) {
    timeline.transfers_total += s->transfers;
    timeline.collisions_total += s->collisions;
    timeline.deferrals_total += s->deferrals;
  }
  if (faults) {
    timeline.faults_injected = faults->fired_total();
    timeline.fault_audit = faults->audit_text();
  }
  timeline.kernel_events = kernel.events_processed();
  kernel.shutdown();
  return timeline;
}

BulkSweepPoint run_bulk_point(const BulkScenarioConfig& config,
                              std::string_view discipline, int senders,
                              Duration window) {
  sim::Kernel kernel(config.seed, config.kernel);
  grid::SubstrateConfig link_config;
  link_config.site = "bulk";
  link_config.bytes_per_second = config.link_bps;
  link_config.model = grid::CapacityModel::kFluid;
  grid::Substrate link(kernel, link_config);
  auto faults = make_injector(kernel, config.faults);
  link.set_fault_injector(faults.get());
  link.set_observers(config.observers);
  bridge_faults(faults.get(), config.observers);

  grid::ReservationBookConfig book_config = config.book;
  if (book_config.reservable_bps <= 0) {
    book_config.reservable_bps = config.reservable_fraction * config.link_bps;
  }
  book_config.site = "bulk.book";
  grid::ReservationBook book(book_config);
  book.set_observers(config.observers);

  std::vector<std::unique_ptr<grid::BulkSenderStats>> stats;
  for (int i = 0; i < senders; ++i) {
    grid::BulkSenderConfig bc = config.sender;
    bc.discipline = std::string(discipline);
    stats.push_back(std::make_unique<grid::BulkSenderStats>());
    kernel.spawn("sender" + std::to_string(i),
                 grid::make_bulk_sender(link, &book, bc, stats.back().get()));
  }
  kernel.run_until(kEpoch + window);

  BulkSweepPoint point;
  point.discipline = std::string(discipline);
  point.senders = senders;
  for (const auto& s : stats) {
    point.files_sent += s->files_sent;
    point.bytes_sent += s->bytes_sent;
    point.collisions += s->discipline.collisions;
    point.deferrals += s->discipline.deferrals;
    point.attempt_timeouts += s->attempt_timeouts;
    point.tries_failed += s->tries_failed;
    point.grants += s->grants;
    point.rejects += s->rejects;
    point.per_sender_bytes.push_back(s->bytes_sent);
  }
  point.goodput_bps = double(point.bytes_sent) / to_seconds(window);
  point.jain_fairness = jain_index(point.per_sender_bytes);
  if (faults) {
    point.faults_injected = faults->fired_total();
    point.fault_audit = faults->audit_text();
  }
  point.kernel_events = kernel.events_processed();
  kernel.shutdown();
  return point;
}

}  // namespace ethergrid::exp
