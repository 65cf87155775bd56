#include "workloads.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "core/sim_clock.hpp"
#include "grid/clients.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shell/interpreter.hpp"
#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"

namespace perfbench {

using namespace ethergrid;

namespace {

void sample_kernel(const sim::Kernel& k, Tracer* t) {
  t->queue_depth_max = std::max(t->queue_depth_max, k.queue_depth());
  t->live_procs_max = std::max(t->live_procs_max, k.live_process_count());
  t->pooled_stacks_max = std::max(t->pooled_stacks_max, k.pooled_stack_count());
}

// Times a repetition's work as consecutive segments: each lap() closes the
// segment begun at the last lap() or restart() and adds it to wall_s.
// Between segments, untimed, the CPU seat is refreshed.
class Laps {
 public:
  explicit Laps(RepResult* r) : r_(r), t0_(WallClock::now()) {}

  void restart() { t0_ = WallClock::now(); }
  void lap() {
    const auto now = WallClock::now();
    const double s = std::chrono::duration<double>(now - t0_).count();
    r_->segments_s.push_back(s);
    r_->wall_s += s;
    if (CpuSeat* seat = current_seat()) seat->refresh();
    t0_ = WallClock::now();
  }

 private:
  RepResult* r_;
  WallClock::time_point t0_;
};

// Runs one kernel to `end` in `slice` steps, one segment each; traced runs
// sample the kernel after every step.  Slicing a single kernel's run_until
// changes nothing it simulates.
void run_kernel(sim::Kernel& k, TimePoint end, Duration slice, Tracer* t,
                Laps* laps) {
  while (k.now() < end) {
    k.run_until(std::min(k.now() + slice, end));
    if (t) sample_kernel(k, t);
    laps->lap();
  }
}

void check(RepResult* r, bool ok, std::string what) {
  if (!ok) r->check_failures.push_back(std::move(what));
}

// Accumulates one client's disciplined work units.  The discipline's live
// counters are used, not TryMetrics: a try still running when the window
// closes is unwound at shutdown before its TryMetrics are merged.  A work
// unit is one attempt at the medium: it succeeded, collided, was deferred
// by carrier sense, or was cut off by an expiring try budget.
void add_units(RepResult* r, const core::DisciplineMetrics& d,
               std::int64_t succeeded, std::int64_t expired) {
  const std::int64_t failed = d.collisions + d.deferrals + expired;
  Metrics& m = r->counts;
  m["core.attempts"] += double(succeeded + failed);
  m["core.backoffs"] += double(failed);
  m["core.deferrals"] += d.deferrals;
  m["core.collisions"] += d.collisions;
  r->units += succeeded + failed;
  r->units_failed += failed;
}

}  // namespace

// ----------------------------------------------------------- fig1_sweep

Fig1World::Fig1World(std::uint64_t seed, std::string_view discipline,
                     int submitters)
    : kernel(seed), schedd(kernel, grid::ScheddConfig{}) {
  grid::SubmitterConfig sc;
  sc.discipline = std::string(discipline);
  stats.resize(std::size_t(submitters));
  for (int i = 0; i < submitters; ++i) {
    kernel.spawn("submitter" + std::to_string(i),
                 grid::make_submitter(schedd, sc, &stats[std::size_t(i)]));
  }
}

RepResult run_fig1_sweep(std::uint64_t seed, Tracer* tracer, Duration slice) {
  RepResult r;
  Laps laps(&r);
  Digest digest;
  std::int64_t high[3] = {0, 0, 0};   // jobs at > 100 submitters
  std::int64_t total[3] = {0, 0, 0};
  Metrics& m = r.counts;
  for (int n : kFig1Counts) {
    for (int k = 0; k < 3; ++k) {
      const char* discipline = kFig1Disciplines[k];
      const auto t0 = WallClock::now();
      auto world = std::make_unique<Fig1World>(seed, discipline, n);
      r.setup_s += seconds_since(t0);

      laps.restart();
      run_kernel(world->kernel, kEpoch + kFig1Window, slice, tracer, &laps);
      const std::int64_t jobs = world->schedd.jobs_submitted();
      const std::uint64_t events = world->kernel.events_processed();
      world->kernel.shutdown();
      laps.lap();

      const grid::FdTable& fds = world->schedd.fd_table();
      digest.add(discipline);
      digest.add(std::uint64_t(n));
      digest.add(std::uint64_t(jobs));
      digest.add(std::uint64_t(world->schedd.crashes()));
      digest.add(std::uint64_t(fds.low_watermark()));
      digest.add(events);
      (n > 100 ? high[k] : total[k]) += jobs;
      m["sim.events"] += double(events);
      m["sim.spawns"] += n;
      m["grid.jobs"] += double(jobs);
      m["grid.crashes"] += world->schedd.crashes();
      m["grid.fd_alloc_failures"] += double(fds.allocation_failures());
      for (const grid::SubmitterStats& s : world->stats) {
        add_units(&r, s.discipline, s.jobs_succeeded, s.tries_failed);
        m["grid.submit_attempts"] +=
            double(s.discipline.collisions + s.jobs_succeeded);
      }
      ++r.worlds;

      laps.restart();
      world.reset();
      laps.lap();
    }
  }
  for (int k = 0; k < 3; ++k) total[k] += high[k];
  // Paper shape: under load Ethernet > Aloha > Fixed.
  check(&r, high[2] > high[1] && high[1] > high[0],
        "fig1 high-load order ethernet > aloha > fixed: " +
            std::to_string(high[2]) + " / " + std::to_string(high[1]) +
            " / " + std::to_string(high[0]));
  check(&r, total[0] > 0 && total[1] > 0 && total[2] > 0,
        "fig1 jobs > 0 for every discipline");
  r.digest = digest.value();
  return r;
}

// ---------------------------------------------------------- ftsh_pipeline

// One pipeline run, in the style of the paper's scripts: fetch an input
// from any of three mirrors (one is a black hole) under a try budget, fan
// out four parts with bounded retries, then publish in a loop.
const char* const kPipelineScript = R"(try for 5 minutes
  forany mirror in ${mirrors}
    try for 30 seconds
      fetch ${mirror} input.dat -> size
    end
  end
end
forall part in 1 2 3 4
  try for 2 minutes or 3 times
    process ${part} ${size} -> out
  end
end
n = 0
while ${n} .lt. 3
  try 5 times
    publish ${client} ${n}
  end
  n = ${n} .add. 1
end
)";

namespace {

constexpr const char* kBlackHole = "zzz";

// Clients, their commands and the observer stack of one pipeline world.
// The observers are the ones `ftsh --trace-out` installs: a TraceRecorder
// and a MetricsRegistry.  A traced run slots the timing decorator in front
// of them.
struct PipelineWorld {
  PipelineWorld(std::uint64_t seed, Tracer* tracer)
      : kernel(seed), executor(kernel), recorder("ftsh pipeline"),
        tracer(tracer) {
    if (tracer) {
      timed.wrap(&recorder);
      timed.wrap(&registry);
      observers.add(&timed);
    } else {
      observers.add(&recorder);
      observers.add(&registry);
    }
    executor.set_observers(&observers);
    register_commands();
    // Generated inputs: each client's mirror order and interpreter seed.
    Rng inputs = Rng(seed).stream("pipeline-inputs");
    const char* orders[] = {"xxx yyy zzz", "yyy zzz xxx", "zzz xxx yyy"};
    for (int i = 0; i < kPipelineClients; ++i) {
      const std::string mirrors = orders[inputs.uniform_int(0, 2)];
      const std::uint64_t interp_seed = inputs.next_u64();
      kernel.spawn("client" + std::to_string(i),
                   [this, i, mirrors, interp_seed](sim::Context& ctx) {
                     client(ctx, i, mirrors, interp_seed);
                   });
    }
  }

  ~PipelineWorld() { kernel.shutdown(); }

  void register_commands() {
    executor.register_command(
        "fetch", [this](sim::Context& ctx, const shell::CommandInvocation& inv)
                     -> shell::CommandResult {
          ++handler_calls;
          if (inv.argv.size() != 3) {
            return {Status::invalid_argument("fetch MIRROR FILE"), "", ""};
          }
          if (inv.argv[1] == kBlackHole) {
            ++black_hole_calls;
            ctx.sleep(hours(1));  // never answers; the try budget unwinds it
          } else {
            ctx.sleep(Duration(ctx.rng().uniform_int(1'000'000, 4'000'000)));
          }
          ++handler_returns;
          if (ctx.rng().chance(0.2)) {
            return {Status::unavailable("mirror busy"), "", ""};
          }
          return {Status::success(),
                  std::to_string(ctx.rng().uniform_int(1 << 20, 64 << 20)) +
                      "\n",
                  ""};
        });
    executor.register_command(
        "process",
        [this](sim::Context& ctx, const shell::CommandInvocation& inv)
            -> shell::CommandResult {
          ++handler_calls;
          if (inv.argv.size() != 3) {
            return {Status::invalid_argument("process PART SIZE"), "", ""};
          }
          ctx.sleep(Duration(ctx.rng().uniform_int(2'000'000, 8'000'000)));
          ++handler_returns;
          if (ctx.rng().chance(0.4)) {
            return {Status::failure("part failed"), "", ""};
          }
          return {Status::success(), "part" + inv.argv[1] + ".out\n", ""};
        });
    executor.register_command(
        "publish",
        [this](sim::Context& ctx, const shell::CommandInvocation& inv)
            -> shell::CommandResult {
          ++handler_calls;
          if (inv.argv.size() != 3) {
            return {Status::invalid_argument("publish CLIENT N"), "", ""};
          }
          ctx.sleep(Duration(ctx.rng().uniform_int(200'000, 1'000'000)));
          ++handler_returns;
          if (ctx.rng().chance(0.1)) {
            return {Status::unavailable("catalog busy"), "", ""};
          }
          return {Status::success(), "", ""};
        });
  }

  void client(sim::Context& ctx, int index, const std::string& mirrors,
              std::uint64_t interp_seed) {
    shell::SimExecutor::ContextBinding binding(executor, ctx);
    shell::InterpreterOptions options;
    options.seed = interp_seed;
    options.observers = &observers;
    shell::Interpreter interpreter(executor, options);
    shell::Environment env;
    env.define("mirrors", mirrors);
    env.define("client", std::to_string(index));
    ctx.sleep(Duration(ctx.rng().uniform_int(0, 10'000'000)));
    while (true) {
      // Parsed on every run, as a fresh `ftsh pipeline.ftsh` would.
      const auto t0 = WallClock::now();
      shell::ParseResult parsed = shell::parse_script(kPipelineScript);
      if (tracer) {
        tracer->parse_ns += nanos_since(t0);
        ++tracer->parses;
      }
      if (parsed.status.failed()) {
        ++parse_errors;
        return;
      }
      const Status status = interpreter.run(*parsed.script, env);
      ++scripts;
      if (status.failed()) ++scripts_failed;
      ctx.sleep(Duration(ctx.rng().uniform_int(1'000'000, 5'000'000)));
    }
  }

  sim::Kernel kernel;
  shell::SimExecutor executor;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  TimedObserver timed;
  obs::ObserverSet observers;
  Tracer* tracer;
  std::int64_t handler_calls = 0;
  std::int64_t handler_returns = 0;
  std::int64_t black_hole_calls = 0;
  std::int64_t scripts = 0;
  std::int64_t scripts_failed = 0;
  std::int64_t parse_errors = 0;
};

}  // namespace

RepResult run_ftsh_pipeline(std::uint64_t seed, Tracer* tracer,
                            Duration slice) {
  RepResult r;
  Digest digest;
  Laps laps(&r);
  Metrics& m = r.counts;
  for (int p = 0; p < kPipelines; ++p) {
    const std::string name = "ftsh pipeline " + std::to_string(p) + ": ";
    const std::uint64_t world_seed =
        Rng(seed).stream("pipeline" + std::to_string(p)).next_u64();
    const auto t0 = WallClock::now();
    auto world = std::make_unique<PipelineWorld>(world_seed, tracer);
    r.setup_s += seconds_since(t0);

    laps.restart();
    run_kernel(world->kernel, kEpoch + kPipelineWindow, slice, tracer, &laps);
    const std::uint64_t events = world->kernel.events_processed();
    world->kernel.shutdown();
    laps.lap();
    std::string trace_json = world->recorder.to_json();
    laps.lap();
    const double export_s = r.segments_s.back();

    PipelineWorld& w = *world;
    const obs::MetricsRegistry& reg = w.registry;
    check(&r, w.kernel.live_process_count() == 0,
          name + "live processes after shutdown");
    check(&r, w.parse_errors == 0, name + "pipeline script failed to parse");
    check(&r, double(w.handler_returns) == reg.counter("spans.command"),
          name + "completed handler calls (" +
              std::to_string(w.handler_returns) + ") != command spans (" +
              std::to_string(std::int64_t(reg.counter("spans.command"))) +
              ")");
    check(&r, w.scripts > 0 && w.scripts_failed > 0 &&
                  w.scripts_failed < w.scripts,
          name + "scripts ran and some, not all, failed");
    check(&r, w.black_hole_calls > 0, name + "black-hole mirror never tried");
    if (tracer) {
      check(&r, std::uint64_t(w.handler_calls) ==
                    w.timed.begins(obs::SpanKind::kCommand),
            name + "handler calls != command spans opened");
      tracer->obs_calls += w.timed.calls();
      tracer->obs_ns += w.timed.total_ns();
      tracer->export_s += export_s;
      tracer->trace_mb += double(trace_json.size()) / (1024.0 * 1024.0);
    }

    digest.add(std::uint64_t(w.scripts));
    digest.add(std::uint64_t(w.scripts_failed));
    digest.add(std::uint64_t(w.handler_calls));
    digest.add(events);
    digest.add(reg.to_json());
    digest.add(trace_json);
    ++r.worlds;
    r.units += w.scripts;
    r.units_failed += w.scripts_failed;

    m["sim.events"] += double(events);
    m["sim.spawns"] += kPipelineClients + reg.counter("spans.process");
    m["shell.scripts"] += double(w.scripts);
    m["shell.commands"] += double(w.handler_calls);
    m["shell.forall_branches"] += reg.counter("spans.process");
    m["core.attempts"] += reg.counter("spans.attempt");
    m["core.collisions"] += reg.counter("spans.attempt.failed");
    m["core.backoffs"] += reg.counter("events.backoff");
    m["core.deferrals"] += 0;

    laps.restart();
    world.reset();
    trace_json = std::string();
    laps.lap();
  }
  r.digest = digest.value();
  return r;
}

// ----------------------------------------------------------- grid_sharded

std::size_t grid_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

exp::ShardedSubmitConfig grid_config(std::uint64_t seed, std::size_t threads) {
  exp::ShardedSubmitConfig config;
  config.sites = 32;
  config.submitters_per_site = 400;  // paper scale: near the fd collapse
  config.remote_per_site = 4;
  config.bulk_per_site = 2;
  config.bulk.discipline = "reservation";
  config.seed = seed;
  config.sharded.shards = 4;
  config.sharded.threads = threads;
  return config;
}

namespace {

// Reply rendezvous of the cross-shard submit RPC, shared by the waiting
// client and both messages so it outlives whichever dies first.
struct SubmitRpc {
  explicit SubmitRpc(sim::Kernel& client_kernel) : reply(client_kernel) {}
  sim::Event reply;
  Status result = Status::unavailable("rpc dropped");
};

grid::Placement grid_placement(const exp::ShardedSubmitConfig& config) {
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

sim::ShardedKernelOptions placed(sim::ShardedKernelOptions options,
                                 const grid::Placement& placement) {
  options.lookahead = placement.lookahead;
  return options;
}

}  // namespace

GridWorld::GridWorld(const exp::ShardedSubmitConfig& config,
                     std::string_view discipline)
    : config(config),
      placement(grid_placement(config)),
      sk(config.seed, placed(config.sharded, placement)) {
  grid::SubmitterConfig sc = config.submitter;
  sc.discipline = std::string(discipline);
  local_stats.resize(config.sites * std::size_t(config.submitters_per_site));
  remote_stats.resize(config.sites * std::size_t(config.remote_per_site));
  for (std::size_t site = 0; site < config.sites; ++site) {
    const std::size_t shard = placement.site_shard(site);
    schedds.push_back(std::make_unique<grid::Schedd>(
        sk.shard(shard), grid::site_schedd_config(config.schedd, site)));
    grid::Schedd& schedd = *schedds.back();
    for (int j = 0; j < config.submitters_per_site; ++j) {
      const std::size_t idx =
          site * std::size_t(config.submitters_per_site) + std::size_t(j);
      spawn_with_stream(
          shard,
          "site" + std::to_string(site) + ".submitter" + std::to_string(j),
          grid::make_submitter(schedd, sc, &local_stats[idx]));
    }
  }
  for (std::size_t site = 0; site < config.sites; ++site) {
    const std::size_t shard = placement.site_shard(site);
    for (int j = 0; j < config.remote_per_site; ++j) {
      const std::size_t idx =
          site * std::size_t(config.remote_per_site) + std::size_t(j);
      spawn_with_stream(
          shard, "site" + std::to_string(site) + ".remote" + std::to_string(j),
          remote_submitter(site, sc, &remote_stats[idx]));
    }
  }
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
      grid::ReservationBook* book = nullptr;
      if (bulk_traits.reservation) {
        grid::ReservationBookConfig bc;
        bc.reservable_bps = config.bulk_link_bps;
        bc.site = lc.site + ".book";
        bulk_books.push_back(std::make_unique<grid::ReservationBook>(bc));
        book = bulk_books.back().get();
      }
      for (int j = 0; j < config.bulk_per_site; ++j) {
        const std::size_t idx =
            site * std::size_t(config.bulk_per_site) + std::size_t(j);
        spawn_with_stream(
            shard, "site" + std::to_string(site) + ".bulk" + std::to_string(j),
            grid::make_bulk_sender(*bulk_links.back(), book, config.bulk,
                                   &bulk_stats[idx]));
      }
    }
  }
}

// Processes hold references into the schedds and links, which are
// destroyed before sk: kill them first.
GridWorld::~GridWorld() { sk.shutdown(); }

// Pins the process RNG to a name-derived stream, so a client's draws do
// not depend on spawn order (which varies with the partition).
void GridWorld::spawn_with_stream(std::size_t shard, std::string name,
                                  sim::ProcessBody body) {
  Rng stream = sk.shard(0).rng().stream(name);
  sk.spawn(shard, std::move(name),
           [stream, body = std::move(body)](sim::Context& ctx) {
             ctx.rng() = stream;
             body(ctx);
           });
}

// A submitter whose schedd is the next site's: every submission is a
// request message to the target shard plus a reply message back.
sim::ProcessBody GridWorld::remote_submitter(std::size_t src_site,
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
    const core::Discipline discipline{
        traits.name, traits.try_options(sc.try_budget, sc.backoff), nullptr};
    sim::Kernel& home = k->shard(src_shard);
    const std::string rpc_name = "rpc:site" + std::to_string(src_site) +
                                 "->" + std::to_string(dst_site);
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

exp::ShardedSubmitResult GridWorld::result(std::string_view discipline) {
  exp::ShardedSubmitResult result;
  result.discipline = std::string(discipline);
  result.sites = config.sites;
  result.shards = sk.shard_count();
  result.threads = sk.thread_count();
  for (std::size_t i = 0; i < schedds.size(); ++i) {
    exp::ShardedSubmitSite site;
    site.jobs_submitted = schedds[i]->jobs_submitted();
    site.schedd_crashes = schedds[i]->crashes();
    site.fd_low_watermark = schedds[i]->fd_table().low_watermark();
    for (int j = 0; j < config.bulk_per_site; ++j) {
      const grid::BulkSenderStats& bs =
          bulk_stats[i * std::size_t(config.bulk_per_site) + std::size_t(j)];
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
  for (const grid::SubmitterStats& stats : remote_stats) {
    result.remote_jobs += stats.jobs_succeeded;
    result.remote_tries_failed += stats.tries_failed;
  }
  result.kernel_events = sk.events_processed();
  result.windows = sk.windows_run();
  result.messages_delivered = sk.messages_delivered();
  return result;
}

std::uint64_t grid_digest(const exp::ShardedSubmitResult& r) {
  Digest digest;
  for (const exp::ShardedSubmitSite& site : r.by_site) {
    digest.add(std::uint64_t(site.jobs_submitted));
    digest.add(std::uint64_t(site.schedd_crashes));
    digest.add(std::uint64_t(site.fd_low_watermark));
    digest.add(std::uint64_t(site.bulk_files));
    digest.add(std::uint64_t(site.bulk_bytes));
    digest.add(std::uint64_t(site.bulk_grants));
  }
  digest.add(std::uint64_t(r.jobs_total));
  digest.add(std::uint64_t(r.remote_jobs));
  digest.add(std::uint64_t(r.remote_tries_failed));
  digest.add(r.kernel_events);
  return digest.value();
}

namespace {

// Runs the sharded world to `end`.  Traced runs step run_until in coarse
// slices and, between slices (world stopped), time one horizon sweep over
// every shard at the world's real queue depth and sample the layers.
void run_sharded(GridWorld& w, TimePoint end, Tracer* t) {
  if (!t) {
    w.sk.run_until(end);
    return;
  }
  const std::uint64_t first = w.sk.windows_run();
  while (w.sk.now() < end) {
    const TimePoint limit = std::min(w.sk.now() + kGridSlice, end);
    const std::uint64_t before = w.sk.windows_run();
    const auto t0 = WallClock::now();
    w.sk.run_until(limit);
    const double us = seconds_since(t0) * 1e6;
    const std::uint64_t ran = w.sk.windows_run() - before;
    if (ran > 0) t->window_us.push_back(us / double(ran));

    TimePoint horizon = TimePoint::max();
    const auto t1 = WallClock::now();
    for (std::size_t s = 0; s < w.sk.shard_count(); ++s) {
      horizon = std::min(horizon, w.sk.shard(s).next_live_event_time());
    }
    t->scan_us.push_back(seconds_since(t1) * 1e6);
    volatile std::int64_t sink = horizon.time_since_epoch().count();
    (void)sink;

    std::size_t depth = 0;
    std::size_t live = 0;
    std::size_t pooled = 0;
    for (std::size_t s = 0; s < w.sk.shard_count(); ++s) {
      depth += w.sk.shard(s).queue_depth();
      live += w.sk.shard(s).live_process_count();
      pooled += w.sk.shard(s).pooled_stack_count();
    }
    t->queue_depth_max = std::max(t->queue_depth_max, depth);
    t->live_procs_max = std::max(t->live_procs_max, live);
    t->pooled_stacks_max = std::max(t->pooled_stacks_max, pooled);
    for (const auto& link : w.bulk_links) {
      if (link->fluid()) {
        t->peak_flows = std::max(t->peak_flows, link->fluid()->active_flows());
      }
    }
  }
  t->windows += w.sk.windows_run() - first;
}

}  // namespace

RepResult run_grid_sharded(std::uint64_t seed, std::size_t threads,
                           Tracer* tracer) {
  RepResult r;
  const exp::ShardedSubmitConfig config = grid_config(seed, threads);
  const auto t0 = WallClock::now();
  auto world = std::make_unique<GridWorld>(config, kGridDiscipline);
  r.setup_s = seconds_since(t0);

  Laps laps(&r);
  run_sharded(*world, kEpoch + kGridWindow, tracer);
  const exp::ShardedSubmitResult res = world->result(kGridDiscipline);
  GridWorld& w = *world;
  double max_shard_events = 0;
  for (std::size_t s = 0; s < w.sk.shard_count(); ++s) {
    max_shard_events =
        std::max(max_shard_events, double(w.sk.shard(s).events_processed()));
  }
  w.sk.shutdown();
  laps.lap();

  const double window_s = to_seconds(kGridWindow);
  const double lane_bytes = config.bulk_link_bps * window_s;
  bool every_site_jobs = true;
  bool bulk_within_capacity = true;
  for (const exp::ShardedSubmitSite& site : res.by_site) {
    every_site_jobs = every_site_jobs && site.jobs_submitted > 0;
    bulk_within_capacity =
        bulk_within_capacity && double(site.bulk_bytes) <= lane_bytes;
  }
  check(&r, every_site_jobs, "grid: a site finished no jobs");
  check(&r, res.remote_jobs > 0, "grid: no remote jobs");
  check(&r, bulk_within_capacity, "grid: bulk bytes exceed capacity x window");
  check(&r, w.sk.live_process_count() == 0,
        "grid: live processes after shutdown");

  Metrics& m = r.counts;
  for (const auto* group : {&w.local_stats, &w.remote_stats}) {
    for (const grid::SubmitterStats& s : *group) {
      add_units(&r, s.discipline, s.jobs_succeeded, s.tries_failed);
      m["grid.submit_attempts"] +=
          double(s.discipline.collisions + s.jobs_succeeded);
    }
  }
  for (const grid::BulkSenderStats& s : w.bulk_stats) {
    add_units(&r, s.discipline, s.files_sent, s.tries_failed);
  }
  double fd_failures = 0;
  for (const auto& schedd : w.schedds) {
    fd_failures += double(schedd->fd_table().allocation_failures());
  }
  double grants = 0;
  double rejects = 0;
  for (const auto& book : w.bulk_books) {
    grants += double(book->granted());
    rejects += double(book->rejected());
  }
  double reshares = 0;
  for (const auto& link : w.bulk_links) {
    if (link->fluid()) reshares += double(link->fluid()->reshares());
  }
  const double shards = double(w.sk.shard_count());
  m["sim.events"] = double(res.kernel_events);
  m["sim.spawns"] = double(w.local_stats.size() + w.remote_stats.size() +
                           w.bulk_stats.size() + res.messages_delivered);
  m["shard.windows"] = double(res.windows);
  m["shard.msgs"] = double(res.messages_delivered);
  m["shard.imbalance"] =
      res.kernel_events ? max_shard_events / (double(res.kernel_events) / shards)
                        : 0;
  m["grid.jobs"] = double(res.jobs_total);
  m["grid.crashes"] = res.schedd_crashes;
  m["grid.fd_alloc_failures"] = fd_failures;
  m["grid.bulk_util"] =
      double(res.bulk_bytes_total) / (lane_bytes * double(config.sites));
  m["grid.grants"] = grants;
  m["grid.rejects"] = rejects;
  m["grid.reshares"] = reshares;

  r.digest = grid_digest(res);
  r.worlds = 1;

  laps.restart();
  world.reset();
  laps.lap();
  return r;
}

}  // namespace perfbench
