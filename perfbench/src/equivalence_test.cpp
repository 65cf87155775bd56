// The benchmark's own tests: the worlds it builds (to time set-up apart
// from the run) must simulate exactly what the exp:: scenario runners
// simulate at the same seed; grid_sharded must digest the same at
// threads = 1 and threads = N; and run_until slicing (every run of the
// single-kernel workloads, traced runs of grid_sharded) must leave every
// workload's digest unchanged.
//
//   perfbench_equivalence [seed]      (default 1; exits 1 on any mismatch)
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/scenarios.hpp"
#include "workloads.hpp"

using namespace ethergrid;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool same(const exp::ShardedSubmitResult& a,
          const exp::ShardedSubmitResult& b) {
  if (a.by_site.size() != b.by_site.size()) return false;
  for (std::size_t i = 0; i < a.by_site.size(); ++i) {
    const exp::ShardedSubmitSite& x = a.by_site[i];
    const exp::ShardedSubmitSite& y = b.by_site[i];
    if (x.jobs_submitted != y.jobs_submitted ||
        x.schedd_crashes != y.schedd_crashes ||
        x.fd_low_watermark != y.fd_low_watermark ||
        x.bulk_files != y.bulk_files || x.bulk_bytes != y.bulk_bytes ||
        x.bulk_grants != y.bulk_grants) {
      return false;
    }
  }
  return a.jobs_total == b.jobs_total && a.remote_jobs == b.remote_jobs &&
         a.remote_tries_failed == b.remote_tries_failed &&
         a.bulk_bytes_total == b.bulk_bytes_total &&
         a.kernel_events == b.kernel_events && a.windows == b.windows &&
         a.messages_delivered == b.messages_delivered;
}

void fig1_matches_scenario_runner(std::uint64_t seed) {
  exp::SubmitScenarioConfig config;
  config.seed = seed;
  for (int n : {100, 450}) {
    for (const char* discipline : kFig1Disciplines) {
      Fig1World world(seed, discipline, n);
      world.kernel.run_until(kEpoch + kFig1Window);
      const exp::SubmitScalePoint want =
          exp::run_submit_scale_point(config, discipline, n, kFig1Window);
      const bool ok =
          world.schedd.jobs_submitted() == want.jobs_submitted &&
          world.schedd.crashes() == want.schedd_crashes &&
          world.schedd.fd_table().low_watermark() == want.fd_low_watermark &&
          world.kernel.events_processed() == want.kernel_events;
      expect(ok, std::string("fig1 world == run_submit_scale_point: ") +
                     discipline + " x " + std::to_string(n) + " (" +
                     std::to_string(want.jobs_submitted) + " jobs)");
      world.kernel.shutdown();
    }
  }
}

exp::ShardedSubmitResult run_grid_world(std::uint64_t seed,
                                        std::size_t threads) {
  GridWorld world(grid_config(seed, threads), kGridDiscipline);
  world.sk.run_until(kEpoch + kGridWindow);
  return world.result(kGridDiscipline);
}

void grid_matches_scenario_runner(std::uint64_t seed) {
  const std::size_t n = grid_threads();
  const exp::ShardedSubmitResult want = exp::run_sharded_submit(
      grid_config(seed, n), kGridDiscipline, kGridWindow);
  const exp::ShardedSubmitResult got = run_grid_world(seed, n);
  expect(same(got, want),
         "grid world == run_sharded_submit at threads=" + std::to_string(n) +
             " (" + std::to_string(want.jobs_total) + " jobs, " +
             std::to_string(want.windows) + " windows, " +
             std::to_string(want.messages_delivered) + " messages)");
  const exp::ShardedSubmitResult serial = run_grid_world(seed, 1);
  expect(grid_digest(serial) == grid_digest(got),
         "grid digest at threads=1 == threads=" + std::to_string(n));
}

void slicing_keeps_digests(std::uint64_t seed) {
  Tracer fig1_trace;
  const RepResult fig1_plain = run_fig1_sweep(seed, nullptr);
  expect(run_fig1_sweep(seed, &fig1_trace).digest == fig1_plain.digest &&
             run_fig1_sweep(seed, nullptr, kFig1Window).digest ==
                 fig1_plain.digest,
         "fig1_sweep digest unchanged by sliced run_until and tracing");

  Tracer ftsh_trace;
  const RepResult ftsh_traced = run_ftsh_pipeline(seed, &ftsh_trace);
  const RepResult ftsh_plain = run_ftsh_pipeline(seed, nullptr);
  const RepResult ftsh_whole = run_ftsh_pipeline(seed, nullptr, kPipelineWindow);
  expect(ftsh_traced.digest == ftsh_plain.digest &&
             ftsh_whole.digest == ftsh_plain.digest &&
             ftsh_traced.check_failures.empty() &&
             ftsh_plain.check_failures.empty(),
         "ftsh_pipeline digest unchanged by sliced run_until and tracing, "
         "checks pass");

  const std::size_t n = grid_threads();
  Tracer grid_trace;
  const RepResult grid_traced = run_grid_sharded(seed, n, &grid_trace);
  const RepResult grid_plain = run_grid_sharded(seed, n, nullptr);
  const double added =
      double(grid_trace.windows) - grid_plain.counts.at("shard.windows");
  expect(grid_traced.digest == grid_plain.digest,
         "grid_sharded digest unchanged by sliced run_until (" +
             std::to_string(std::int64_t(added)) + " windows added to " +
             std::to_string(
                 std::int64_t(grid_plain.counts.at("shard.windows"))) +
             ")");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  fig1_matches_scenario_runner(seed);
  grid_matches_scenario_runner(seed);
  slicing_keeps_digests(seed);
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
