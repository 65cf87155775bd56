// Figure 1: Scalability of Job Submission.
//
// Paper: "the throughput of a varying load of submitters competing for a
// schedd.  Each point represents the number of jobs submitted in five
// minutes by the given number of submitters.  The fixed client fails
// completely above a load of 400 submitters.  The Aloha client settles into
// an unstable throughput of 100-200 jobs per five minutes ...  The Ethernet
// client maintains about 50 percent of peak performance under load."
//
// Usage: fig1_submit_scale [submitter counts...]   (default: paper sweep)
//
// After the paper sweep, a second pass measures the sharded kernel on a
// fig1-style multi-site grid: the same Ethernet workload partitioned
// across shards ∈ {1, 2, 4, 8}, threads = min(shards, hardware threads).
// Knobs:
//   ETHERGRID_FIG1_SHARDED_SITES    sites/schedds      (default 8)
//   ETHERGRID_FIG1_SHARDED_CLIENTS  total submitters   (default 1600;
//                                   set 1000000 for the mega run)
//   ETHERGRID_FIG1_SHARDED_WINDOW_S virtual seconds    (default 300)
//   ETHERGRID_FIG1_SHARDED_ONLY     skip the paper sweep (mega-run CI
//                                   step; any non-empty value)
// With ETHERGRID_BENCH_BASELINE set, the run gates sharded_speedup_2 and
// sharded_speedup_4 against the committed baseline (skipped on < 4
// hardware threads, or per row when the baseline lacks it), and -- when
// the client count matches the baseline's sharded_clients -- peak-RSS
// bytes_per_client within 1.5x (the 10^6-client memory contract: lazy
// fibers + pooling).  Each gated row also reports the share of host CPU
// time stolen by the hypervisor during its best pass (/proc/stat), so a
// breach says whether steal can explain it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/scenarios.hpp"
#include "exp/table.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"

using namespace ethergrid;

namespace {

long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const long parsed = std::atol(v);
  return parsed > 0 ? parsed : fallback;
}

// Cumulative CPU ticks from /proc/stat's aggregate "cpu" line: the steal
// column and the sum of user..steal.  Zero where the file is unreadable.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

CpuTicks read_cpu_ticks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

// Share of all CPU time between two reads that the hypervisor stole.
double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const unsigned long long total = after.total - before.total;
  return total > 0 ? double(after.steal - before.steal) / double(total) : 0;
}

// Sharded scaling pass: wall-clock the same workload at increasing shard
// counts and gate the 2- and 4-thread speedups against the committed
// baseline.
// Returns the process exit code (0 ok, 1 gate breach).
int run_sharded_scale() {
  const std::size_t sites =
      std::size_t(env_long("ETHERGRID_FIG1_SHARDED_SITES", 8));
  const long clients = env_long("ETHERGRID_FIG1_SHARDED_CLIENTS", 1600);
  const auto window = sec(env_long("ETHERGRID_FIG1_SHARDED_WINDOW_S", 300));
  // The 10^5+ "mega" configuration owns a separate report entry (and
  // baseline gates): its walls, windows, and bytes-per-client are a
  // different regime than the default smoke scale, and the dedupe key
  // would otherwise make whichever ran last clobber the other.
  const bool mega = clients >= 100000;
  const std::string report_name =
      mega ? "fig1_sharded_mega" : "fig1_sharded_scale";
  bench::Report report(report_name);

  exp::ShardedSubmitConfig config;
  config.sites = sites;
  config.submitters_per_site = int(std::max(1l, clients / long(sites)));
  config.remote_per_site = 2;  // keep the cross-shard mailbox path hot

  std::vector<std::size_t> shard_counts;
  for (std::size_t n : {std::size_t(1), std::size_t(2), std::size_t(4),
                        std::size_t(8)}) {
    if (n <= sites) shard_counts.push_back(n);
  }
  // A row runs one thread per shard up to the host's hardware threads, so
  // each row measures scaling, not oversubscription: on a 4-thread host
  // the shards=8 row runs 8 shards on 4 threads.
  const std::size_t hw_threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto threads_for = [hw_threads](std::size_t shards) {
    return std::min(shards, hw_threads);
  };
  report.set_execution(shard_counts.back(), threads_for(shard_counts.back()));

  exp::Table table("Sharded kernel scaling (Ethernet discipline)",
                   {"shards", "threads", "wall_s", "speedup", "jobs",
                    "remote_jobs", "windows", "xshard_msgs",
                    "parks_per_window"});
  // Each wall is the best of `reps` passes, interleaved across shard
  // counts so a slow stretch of the host hits every count alike.  Host
  // noise only ever slows a pass down, so the minimum is the stable
  // statistic, and the speedup gate below divides two of them.  The mega
  // run is too long to repeat.
  const int reps = mega ? 1 : 5;
  std::vector<double> walls(shard_counts.size(), 0);
  std::vector<double> steals(shard_counts.size(), 0);  // of each best pass
  std::vector<exp::ShardedSubmitResult> results(shard_counts.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < shard_counts.size(); ++i) {
      const std::size_t n = shard_counts[i];
      std::fprintf(stderr,
                   "[fig1] sharded pass %d/%d: %zu shard(s) x %ld clients\n",
                   rep + 1, reps, n,
                   long(config.submitters_per_site) * long(sites));
      config.sharded.shards = n;
      config.sharded.threads = threads_for(n);
      const CpuTicks ticks0 = read_cpu_ticks();
      const auto t0 = std::chrono::steady_clock::now();
      results[i] = exp::run_sharded_submit(config, "ethernet", window);
      const double pass =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (rep == 0 || pass < walls[i]) {
        walls[i] = pass;
        steals[i] = steal_share(ticks0, read_cpu_ticks());
      }
      report.add_events(results[i].kernel_events);
    }
  }
  const double wall_1 = walls[0];
  double best_speedup = 0;  // reported only: includes shards=1's 1.00
  struct GatedRow {
    std::size_t shards;
    double speedup;
    double steal;  // host steal share of the row's best pass
  };
  std::vector<GatedRow> speedups;  // shards > 1
  std::int64_t jobs_ref = -1;
  bool jobs_stable = true;
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    const std::size_t n = shard_counts[i];
    const exp::ShardedSubmitResult& r = results[i];
    const double wall = walls[i];
    const double speedup = wall > 0 ? wall_1 / wall : 0;
    // Of the row's last pass: barrier waits that outlasted the poll
    // budget and parked, per window (0 with one thread).
    const double parks_per_window =
        r.windows > 0 ? double(r.barrier_parks) / double(r.windows) : 0;
    best_speedup = std::max(best_speedup, speedup);
    // Partition independence: per-site worlds are identical, so total
    // jobs must not move when the shard count does.
    if (jobs_ref < 0) jobs_ref = r.jobs_total;
    jobs_stable = jobs_stable && r.jobs_total == jobs_ref;
    table.add_row({exp::Table::cell(std::int64_t(n)),
                   exp::Table::cell(std::int64_t(r.threads)),
                   exp::Table::cell(wall), exp::Table::cell(speedup),
                   exp::Table::cell(r.jobs_total),
                   exp::Table::cell(r.remote_jobs),
                   exp::Table::cell(std::int64_t(r.windows)),
                   exp::Table::cell(std::int64_t(r.messages_delivered)),
                   exp::Table::cell(parks_per_window)});
    report.metric("sharded_wall_s_" + std::to_string(n), wall);
    if (n > 1) {
      report.metric("sharded_speedup_" + std::to_string(n), speedup);
      speedups.push_back({n, speedup, steals[i]});
    }
    if (n == 2 || n == 4) {
      report.metric("sharded_steal_share_" + std::to_string(n), steals[i]);
    }
  }
  table.print();
  for (const GatedRow& row : speedups) {
    if (row.shards != 2 && row.shards != 4) continue;
    std::printf("Host CPU steal during the best shards=%zu pass: %.1f%%\n",
                row.shards, 100 * row.steal);
  }
  // Partition independence wants jobs > 0 to be non-vacuous, except in the
  // mega regime: 10^6 submitters saturate the schedds so completely that a
  // short measurement window finishes zero jobs -- there the contract is
  // stability (identical totals across shard counts) plus the memory gate.
  const bool shape_ok = jobs_stable && (jobs_ref > 0 || mega);
  report.shape(shape_ok);
  report.metric("sharded_jobs_total", double(jobs_ref));
  report.metric("sharded_speedup_best", best_speedup);

  // Memory contract of the mega run: peak RSS amortized over the client
  // population.  Lazy fiber materialization + process pooling keep this in
  // the handful-of-KB range at 10^6 clients; a regression that re-eagers
  // stacks or leaks per-spawn allocations shows up here first.
  const long total_clients =
      (long(config.submitters_per_site) + config.remote_per_site) *
      long(sites);
  const double peak_rss = double(bench::Report::peak_rss_bytes());
  const double bytes_per_client =
      total_clients > 0 ? peak_rss / double(total_clients) : 0;
  report.metric("sharded_clients", double(total_clients));
  report.metric("peak_rss_bytes", peak_rss);
  report.metric("bytes_per_client", bytes_per_client);
  std::printf("\nSharded shape check: jobs stable across shard counts -> %s; "
              "best speedup %.2fx\n",
              shape_ok ? "OK" : "MISMATCH", best_speedup);
  std::printf("Peak RSS %.1f MB over %ld clients -> %.0f bytes/client\n",
              peak_rss / (1024 * 1024), total_clients, bytes_per_client);

  // Speedup gate: only meaningful against a committed baseline and with
  // enough cores that the parallel passes can actually run in parallel.
  // The threads=2 and threads=4 rows are gated, each against its own
  // baseline; the shards=1 row is 1.00 by construction and proves nothing.
  const char* baseline_path = std::getenv("ETHERGRID_BENCH_BASELINE");
  if (baseline_path && *baseline_path) {
    const unsigned cores = std::thread::hardware_concurrency();
    bool breach = false;
    for (const auto& [n, speedup, steal] : speedups) {
      if (n != 2 && n != 4) continue;
      const std::string key = "sharded_speedup_" + std::to_string(n);
      const double baseline =
          bench::Report::read_baseline_metric(baseline_path, report_name, key);
      if (baseline <= 0) {
        std::printf("Speedup gate %s: skipped (not in %s)\n", key.c_str(),
                    baseline_path);
      } else if (cores < 4) {
        std::printf("Speedup gate %s: skipped (%u hardware thread(s) < 4)\n",
                    key.c_str(), cores);
      } else if (speedup < 0.6 * baseline) {
        std::fprintf(stderr,
                     "[fig1] SPEEDUP GATE BREACH: %s %.2fx < 60%% of "
                     "baseline %.2fx; host steal was %.1f%% of the pass "
                     "(%s 10%%)\n",
                     key.c_str(), speedup, baseline, 100 * steal,
                     steal > 0.1 ? "above" : "not above");
        breach = true;
      } else {
        std::printf("Speedup gate %s: OK (%.2fx vs baseline %.2fx; steal "
                    "%.1f%%)\n",
                    key.c_str(), speedup, baseline, 100 * steal);
      }
    }
    if (breach) return 1;
    // Memory gate: RSS is reproducible (unlike shared-runner wall
    // clocks), so the tolerance can be much tighter than the speedup
    // gate's.  Compared only at matching scale -- bytes_per_client
    // amortizes fixed overheads, so a 1600-client smoke run must not be
    // judged against the 10^6-client baseline.
    const double base_clients = bench::Report::read_baseline_metric(
        baseline_path, report_name, "sharded_clients");
    const double base_bpc = bench::Report::read_baseline_metric(
        baseline_path, report_name, "bytes_per_client");
    if (base_bpc <= 0 || long(base_clients) != total_clients) {
      std::printf("Memory gate: skipped (baseline is %ld clients at %.0f "
                  "bytes/client; this run is %ld)\n",
                  long(base_clients), base_bpc, total_clients);
    } else if (bytes_per_client > 1.5 * base_bpc) {
      std::fprintf(stderr,
                   "[fig1] MEMORY GATE BREACH: %.0f bytes/client > 150%% of "
                   "baseline %.0f\n",
                   bytes_per_client, base_bpc);
      return 1;
    } else {
      std::printf("Memory gate: OK (%.0f bytes/client vs baseline %.0f)\n",
                  bytes_per_client, base_bpc);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The mega-run CI step re-invokes this binary for the sharded pass
  // alone; the paper sweep's numbers were already published by the
  // regular invocation.
  const char* sharded_only = std::getenv("ETHERGRID_FIG1_SHARDED_ONLY");
  if (sharded_only && *sharded_only) return run_sharded_scale();

  bench::Report report("fig1_submit_scale");
  std::vector<int> counts = {25, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500};
  if (argc > 1) {
    counts.clear();
    for (int i = 1; i < argc; ++i) counts.push_back(std::atoi(argv[i]));
  }

  exp::SubmitScenarioConfig config;  // paper-calibrated defaults
  // Aggregate back-channel metrics (crashes, fd-table exhaustion, ...)
  // across the sweep; the registry rides the report entry as
  // "observability".
  obs::MetricsRegistry registry;
  obs::ObserverSet observers;
  observers.add(&registry);
  config.observers = &observers;

  exp::Table table(
      "Figure 1: Scalability of Job Submission (jobs submitted in 5 minutes)",
      {"submitters", "fixed", "aloha", "ethernet", "crashes_fixed",
       "crashes_aloha", "crashes_ethernet"});

  struct Totals {
    std::int64_t jobs_low = 0, jobs_high = 0;
  } fixed_totals, aloha_totals, ethernet_totals;

  for (int n : counts) {
    std::fprintf(stderr, "[fig1] running %d submitters...\n", n);
    auto fixed = exp::run_submit_scale_point(config,
                                             "fixed", n);
    auto aloha = exp::run_submit_scale_point(config,
                                             "aloha", n);
    auto ether = exp::run_submit_scale_point(
        config, "ethernet", n);
    table.add_row({exp::Table::cell(n), exp::Table::cell(fixed.jobs_submitted),
                   exp::Table::cell(aloha.jobs_submitted),
                   exp::Table::cell(ether.jobs_submitted),
                   exp::Table::cell(fixed.schedd_crashes),
                   exp::Table::cell(aloha.schedd_crashes),
                   exp::Table::cell(ether.schedd_crashes)});
    auto tally = [n](Totals* t, std::int64_t jobs) {
      (n <= 100 ? t->jobs_low : t->jobs_high) += jobs;
    };
    tally(&fixed_totals, fixed.jobs_submitted);
    tally(&aloha_totals, aloha.jobs_submitted);
    tally(&ethernet_totals, ether.jobs_submitted);
    report.add_events(fixed.kernel_events + aloha.kernel_events +
                      ether.kernel_events);
  }
  table.print();

  std::printf(
      "\nShape check (paper: under load Ethernet > Aloha > Fixed; Fixed "
      "collapses at high N):\n");
  const bool ordered = ethernet_totals.jobs_high > aloha_totals.jobs_high &&
                       aloha_totals.jobs_high > fixed_totals.jobs_high;
  std::printf("  high-load totals: fixed=%lld aloha=%lld ethernet=%lld -> %s\n",
              (long long)fixed_totals.jobs_high,
              (long long)aloha_totals.jobs_high,
              (long long)ethernet_totals.jobs_high,
              ordered ? "OK" : "MISMATCH");
  report.shape(ordered);
  report.metric("jobs_high_fixed", double(fixed_totals.jobs_high));
  report.metric("jobs_high_aloha", double(aloha_totals.jobs_high));
  report.metric("jobs_high_ethernet", double(ethernet_totals.jobs_high));
  report.set_observability(registry.to_json());
  report.write();

  return run_sharded_scale();
}
