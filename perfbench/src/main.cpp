// ethergrid_perfbench: one benchmark run of one workload.
//
//   ethergrid_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the workload for S seconds (after one warm-up
// repetition) and prints the end-to-end metrics: the best wall seconds
// (each segment of the repetition's work at its fastest, summed), the
// median set-up seconds, peak RSS, and the failed fraction of simulated
// client work units.  --trace 1 is the traced run: it measures the same
// workload untraced and traced (coarse run_until slices, the observer
// timing decorator, sampling between slices), runs the isolated per-layer
// probes, and prints the per-layer metrics with the cost ledger.  Every
// repetition checks its simulated outputs and must reproduce the same
// digest.  The last stdout line is the result object.
#include <malloc.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

using RepFn = std::function<RepResult(Tracer*, std::size_t threads)>;

// Repetitions of one configuration: medians plus everything the checks need.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> best_segments;  // per segment: fastest repetition
  std::vector<Tracer> tracers;
  RepResult first;
  std::int64_t worlds = 0;
  std::int64_t worlds_failed = 0;
};

class Runner {
 public:
  // `seat`: keep the (single-threaded) workload on the least disturbed CPU,
  // chosen anew before every repetition and between its segments.
  Runner(RepFn fn, std::uint64_t* digest, bool seat)
      : fn_(std::move(fn)), digest_(digest), seat_(seat) {}

  // Runs repetitions until `budget_s` has elapsed (at least `min_reps`).
  Phase run(double budget_s, int min_reps, bool traced, std::size_t threads) {
    Phase phase;
    const auto t0 = WallClock::now();
    for (int rep = 0; rep < min_reps || seconds_since(t0) < budget_s; ++rep) {
      Tracer tracer;
      if (seat_) {
        cpus_.take_fastest();
        current_seat() = &cpus_;
      }
      RepResult r = fn_(traced ? &tracer : nullptr, threads);
      current_seat() = nullptr;
      record(r);
      phase.worlds += r.worlds;
      if (!r.check_failures.empty() || r.digest != *digest_) {
        phase.worlds_failed += r.worlds;
      }
      phase.setup_s.push_back(r.setup_s);
      phase.wall_s.push_back(r.wall_s);
      keep_fastest(r.segments_s, &phase.best_segments);
      if (traced) phase.tracers.push_back(std::move(tracer));
      if (rep == 0) phase.first = std::move(r);
    }
    cpus_.release();
    return phase;
  }

  bool correct() const { return correct_; }

 private:
  void keep_fastest(const std::vector<double>& segments,
                    std::vector<double>* best) {
    if (best->empty()) {
      *best = segments;
    } else if (segments.size() != best->size()) {
      std::fprintf(stderr, "perfbench: %zu segments != first %zu\n",
                   segments.size(), best->size());
      correct_ = false;
    } else {
      for (std::size_t i = 0; i < segments.size(); ++i) {
        (*best)[i] = std::min((*best)[i], segments[i]);
      }
    }
  }

  void record(const RepResult& r) {
    for (const std::string& f : r.check_failures) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
      correct_ = false;
    }
    if (*digest_ == 0) *digest_ = r.digest;
    if (r.digest != *digest_) {
      std::fprintf(stderr,
                   "perfbench: digest %016" PRIx64 " != first %016" PRIx64
                   "\n",
                   r.digest, *digest_);
      correct_ = false;
    }
  }

  RepFn fn_;
  std::uint64_t* digest_;
  bool seat_;
  CpuSeat cpus_;
  bool correct_ = true;
};

double peak_rss_mb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double get(const Metrics& m, const char* name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// A repetition's wall time is its fixed virtual work plus whatever the
// machine's other tenants cost it.  Interference only ever adds time, and
// on a shared host it comes and goes many times within one repetition, so
// few repetitions escape it whole.  Every repetition of a run does the same
// work in the same segments (run_until steps of a millisecond or two,
// shutdown, export, teardown), and each segment at its fastest over the
// run's repetitions has almost always run undisturbed: their sum is the
// steadiest estimate of the program's own cost.
double best_wall(const Phase& phase) {
  double sum = 0;
  for (double s : phase.best_segments) sum += s;
  return sum;
}

std::size_t fastest_index(const std::vector<double>& walls) {
  return std::size_t(std::min_element(walls.begin(), walls.end()) -
                     walls.begin());
}

// Per-repetition timings of a traced phase, as medians over repetitions.
template <class F>
double traced_median(const Phase& phase, F value) {
  std::vector<double> values;
  for (const Tracer& t : phase.tracers) values.push_back(value(t));
  return median(std::move(values));
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::pair<std::string, std::pair<double,
                                                               const char*>>>&
                      metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    if (i) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ethergrid_perfbench --workload fig1_sweep|"
                 "ftsh_pipeline|grid_sharded --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::uint64_t seed = args.seed;
  const bool sharded = args.workload == "grid_sharded";
  const std::size_t threads = sharded ? grid_threads() : 1;
  RepFn fn;
  if (args.workload == "fig1_sweep") {
    fn = [seed](Tracer* t, std::size_t) { return run_fig1_sweep(seed, t); };
  } else if (args.workload == "ftsh_pipeline") {
    fn = [seed](Tracer* t, std::size_t) { return run_ftsh_pipeline(seed, t); };
  } else if (sharded) {
    fn = [seed](Tracer* t, std::size_t n) {
      return run_grid_sharded(seed, n, t);
    };
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Freed memory stays in the allocator for the next repetition instead of
  // going back to the OS, so repetitions after the warm-up fault in few
  // pages: glibc keeps up to 1 GiB of free heap, serves blocks up to
  // 32 MiB (its mmap ceiling) from the heap, and grows the heap 256 MiB at
  // a time.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TOP_PAD, 256 << 20);

  std::uint64_t digest = 0;
  Runner runner(fn, &digest, !sharded);
  // Warm-up: fills the fiber-stack cache and the allocator, and fixes the
  // digest every later repetition must reproduce.
  Phase warm = runner.run(0, 1, false, threads);
  const Metrics counts = warm.first.counts;
  const double failed_frac =
      ratio(double(warm.first.units_failed), double(warm.first.units));
  std::vector<std::pair<std::string, std::pair<double, const char*>>> out;

  if (args.trace == 0) {
    Phase p = runner.run(args.seconds, 3, false, threads);
    out.push_back({"wall_s", {best_wall(p), "s"}});
    out.push_back({"setup_s", {median(p.setup_s), "s"}});
    out.push_back({"peak_rss_mb", {peak_rss_mb(), "MB"}});
    out.push_back({"failed_frac", {failed_frac, "ratio"}});
    std::fprintf(stderr,
                 "perfbench: %s seed %" PRIu64 " digest %016" PRIx64
                 " reps %zu wall best/min/median/max %.4f/%.4f/%.4f/%.4f s"
                 " units %" PRId64 " failed %" PRId64 "\n",
                 args.workload.c_str(), seed, digest, p.wall_s.size(),
                 best_wall(p), quantile(p.wall_s, 0), median(p.wall_s),
                 quantile(p.wall_s, 1),
                 warm.first.units, warm.first.units_failed);
    print_result(runner.correct(), p.worlds + warm.worlds,
                 p.worlds_failed + warm.worlds_failed, out);
    return 0;
  }

  // ---- traced run ----
  const double share = sharded ? args.seconds / 3 : args.seconds / 2;
  Phase plain = runner.run(share, 2, false, threads);
  Phase traced = runner.run(share, 2, true, threads);
  // grid_sharded also runs traced at threads = 1: the speedup's baseline,
  // and the configuration the ledger explains (all work on one thread).
  Phase serial = sharded ? runner.run(share, 1, true, 1) : Phase{};
  const Phase& ledger_phase = sharded ? serial : traced;

  const Tracer& t0 = traced.tracers.front();
  const ProbeResults probe = run_probes(threads, t0.peak_flows);

  // Timings that are shares of a wall time come from the fastest traced
  // repetition, the same one whose wall they are divided by; untraced vs
  // traced cost compares the phases' best walls.
  const std::size_t ti = fastest_index(traced.wall_s);
  const std::size_t li = fastest_index(ledger_phase.wall_s);
  const Tracer& tt = traced.tracers[ti];
  const Tracer& lt = ledger_phase.tracers[li];
  const double wall_plain = best_wall(plain);
  const double wall_traced = traced.wall_s[ti];
  const double wall_ledger = ledger_phase.wall_s[li];
  const double events = get(counts, "sim.events");
  const double windows = get(counts, "shard.windows");
  const double msgs = get(counts, "shard.msgs");
  const double parses = double(t0.parses);
  const double parse_us =
      parses > 0 ? traced_median(traced, [](const Tracer& t) {
        return ratio(double(t.parse_ns), double(t.parses)) / 1000.0;
      })
                 : probe.parse_us;
  const bool observed = t0.obs_calls > 0;
  const double obs_ns_per_call =
      observed ? traced_median(traced, [](const Tracer& t) {
        return ratio(double(t.obs_ns), double(t.obs_calls));
      })
               : probe.obs_ns_per_call;
  const double obs_s = double(tt.obs_ns) * 1e-9 + tt.export_s;
  const double export_s =
      observed ? traced_median(traced, [](const Tracer& t) {
        return t.export_s;
      })
               : probe.obs_export_s;
  double window_p50 = probe.idle_window_us_p50;
  double window_p99 = probe.idle_window_us_p99;
  double scan_us = probe.idle_scan_us;
  double scan_share = 0;
  double speedup = 1;
  double windows_added = 0;
  if (sharded) {
    std::vector<double> per_window;
    std::vector<double> scans;
    for (const Tracer& t : traced.tracers) {
      per_window.insert(per_window.end(), t.window_us.begin(),
                        t.window_us.end());
      scans.insert(scans.end(), t.scan_us.begin(), t.scan_us.end());
    }
    window_p50 = quantile(per_window, 0.5);
    window_p99 = quantile(per_window, 0.99);
    scan_us = median(scans);
    // Each worker sweeps its own shards once per window, in parallel.
    scan_share = ratio(double(t0.windows) * scan_us /
                           double(std::min<std::size_t>(threads, 4)),
                       wall_traced * 1e6);
    speedup = ratio(wall_ledger, wall_traced);
    windows_added = double(t0.windows) - windows;
  }

  // Ledger: count x isolated cost per layer, against the ledger phase's
  // wall time.  Kernel events are charged once, to sim; spawns beyond their
  // own first dispatch, and the grid operations net of their events, are
  // charged to their layers (floored at 0: a net cost below the noise of
  // the per-event cost reads as 0).
  const double ledger_ns = wall_ledger * 1e9;
  const double spawns = get(counts, "sim.spawns");
  const double accepted = get(counts, "grid.jobs");
  const double rejected =
      std::max(0.0, get(counts, "grid.submit_attempts") - accepted);
  const double reshares = get(counts, "grid.reshares");
  auto floor0 = [](double ns) { return std::max(0.0, ns); };
  const double sim_ns =
      events * probe.sleep_event_ns +
      spawns * floor0(probe.spawn_ns - probe.sleep_event_ns);
  const double grid_ns = accepted * floor0(probe.submit_ns) +
                         rejected * floor0(probe.refused_submit_ns) +
                         reshares * floor0(probe.reshare_ns);
  const double core_ns = get(counts, "core.attempts") * probe.backoff_ns;
  const double shell_ns =
      get(counts, "shell.commands") * probe.cmd_ns +
      (parses > 0 ? double(lt.parse_ns) : 0);
  const double obs_ledger_ns =
      observed ? double(lt.obs_ns) + lt.export_s * 1e9 : 0;
  const double shard_ns =
      sharded ? double(lt.windows) * (probe.empty_window_1t_us + scan_us) * 1e3
              : 0;
  const double explained =
      sim_ns + grid_ns + core_ns + shell_ns + obs_ledger_ns + shard_ns;

  auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, {value, unit}});
  };
  add("sim.events", events, "count");
  add("sim.spawns", spawns, "count");
  add("sim.ns_per_event", ratio(wall_plain * 1e9, events), "ns");
  add("sim.switch_ns", probe.switch_ns, "ns");
  add("sim.sleep_event_ns", probe.sleep_event_ns, "ns");
  add("sim.spawn_ns", probe.spawn_ns, "ns");
  add("sim.queue_depth_max", double(t0.queue_depth_max), "count");
  add("sim.live_procs_max", double(t0.live_procs_max), "count");
  add("sim.pooled_stacks", double(t0.pooled_stacks_max), "count");
  add("shard.windows", windows, "count");
  add("shard.msgs", msgs, "count");
  add("shard.windows_per_msg", ratio(windows, msgs), "ratio");
  add("shard.events_per_window", ratio(events, windows), "ratio");
  add("shard.window_us_p50", window_p50, "us");
  add("shard.window_us_p99", window_p99, "us");
  add("shard.scan_us", scan_us, "us");
  add("shard.scan_share", scan_share, "ratio");
  add("shard.empty_window_us", probe.empty_window_us, "us");
  add("shard.imbalance", sharded ? get(counts, "shard.imbalance") : 1.0,
      "ratio");
  add("shard.speedup", speedup, "x");
  add("shard.windows_added", windows_added, "count");
  add("grid.submit_attempts", get(counts, "grid.submit_attempts"), "count");
  add("grid.jobs", get(counts, "grid.jobs"), "count");
  add("grid.useful_ratio",
      ratio(get(counts, "grid.jobs"), get(counts, "grid.submit_attempts")),
      "ratio");
  add("grid.crashes", get(counts, "grid.crashes"), "count");
  add("grid.fd_alloc_failures", get(counts, "grid.fd_alloc_failures"),
      "count");
  add("grid.fd_ns", probe.fd_ns, "ns");
  add("grid.submit_ns", probe.submit_ns, "ns");
  add("grid.refused_submit_ns", probe.refused_submit_ns, "ns");
  add("grid.bulk_util", get(counts, "grid.bulk_util"), "ratio");
  add("grid.grants", get(counts, "grid.grants"), "count");
  add("grid.rejects", get(counts, "grid.rejects"), "count");
  add("grid.reshares", reshares, "count");
  add("grid.peak_flows", double(t0.peak_flows), "count");
  add("grid.reshare_ns", probe.reshare_ns, "ns");
  add("core.attempts", get(counts, "core.attempts"), "count");
  add("core.backoffs", get(counts, "core.backoffs"), "count");
  add("core.deferrals", get(counts, "core.deferrals"), "count");
  add("core.collisions", get(counts, "core.collisions"), "count");
  add("core.backoff_ns", probe.backoff_ns, "ns");
  add("shell.scripts", get(counts, "shell.scripts"), "count");
  add("shell.commands", get(counts, "shell.commands"), "count");
  add("shell.forall_branches", get(counts, "shell.forall_branches"), "count");
  add("shell.parse_us", parse_us, "us");
  add("shell.cmd_ns", probe.cmd_ns, "ns");
  add("shell.share", ratio(shell_ns, ledger_ns), "ratio");
  add("obs.calls", double(t0.obs_calls), "count");
  add("obs.ns_per_call", obs_ns_per_call, "ns");
  add("obs.share", ratio(obs_s, wall_traced), "ratio");
  add("obs.export_s", export_s, "s");
  add("obs.trace_mb", t0.trace_mb, "MB");
  add("ledger.wall_s", wall_ledger, "s");
  add("ledger.sim_share", ratio(sim_ns, ledger_ns), "ratio");
  add("ledger.grid_share", ratio(grid_ns, ledger_ns), "ratio");
  add("ledger.core_share", ratio(core_ns, ledger_ns), "ratio");
  add("ledger.shard_share", ratio(shard_ns, ledger_ns), "ratio");
  add("ledger.residual_share", ratio(ledger_ns - explained, ledger_ns),
      "ratio");
  add("trace.overhead_pct",
      100.0 * ratio(best_wall(traced) - wall_plain, wall_plain), "%");
  std::fprintf(stderr,
               "perfbench: %s seed %" PRIu64 " digest %016" PRIx64
               " reps plain %zu traced %zu serial %zu\n",
               args.workload.c_str(), seed, digest, plain.wall_s.size(),
               traced.wall_s.size(), serial.wall_s.size());
  const std::int64_t worlds =
      warm.worlds + plain.worlds + traced.worlds + serial.worlds;
  const std::int64_t worlds_failed = warm.worlds_failed + plain.worlds_failed +
                                     traced.worlds_failed +
                                     serial.worlds_failed;
  print_result(runner.correct(), worlds, worlds_failed, out);
  return 0;
}
