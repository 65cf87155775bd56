// Microbenchmarks: the discrete-event kernel itself.
//
// The custom main captures every benchmark's items/sec into the shared
// bench report, gates the bare raw switch against libc's sigsetjmp, gates
// the horizon scan's cost at two queue depths against each other, and gates
// the event-queue hot paths and the heap allocations of a failed attempt
// against the committed baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csetjmp>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/discipline.hpp"
#include "core/sim_clock.hpp"
#include "report.hpp"
#include "sim/fcontext.hpp"
#include "sim/kernel.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/store.hpp"

// Global allocation counter behind BM_TryAttempt's allocs_per_attempt: the
// heap allocations of a fixed-seed simulated run are exactly reproducible,
// unlike its wall clock.
namespace {
std::atomic<std::int64_t> g_alloc_count{0};
void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ethergrid;

// ---------------------------------------------- scheduler head-to-heads

// Context-switch round-trip throughput: one process sleeping K times.
// Every event is one scheduler->process->scheduler round trip, so
// items/sec IS switch-pair throughput.
void BM_SwitchRoundTrip(benchmark::State& state) {
  const int k = 20000;
  for (auto _ : state) {
    sim::Kernel kernel(1);
    kernel.spawn("switcher", [&](sim::Context& ctx) {
      for (int i = 0; i < k; ++i) ctx.sleep(msec(1));
    });
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * k);
}
BENCHMARK(BM_SwitchRoundTrip);

// The naked switch primitive, no kernel: a scheduler round trip above is
// ~40ns all-in (queue pop, clock bump, dispatch bookkeeping).  This
// isolates what the handoff itself costs -- one item is one round trip,
// i.e. two suspends + two resumes -- against libc's sigsetjmp/siglongjmp
// pair as a within-run reference: the raw switch's "a dozen moves plus an
// indirect jump" must beat glibc's pointer-mangled, unwind-checked
// save/restore.
struct BareRawPingPong {
  static void entry(sim::internal::transfer_t t) {
    // Bounce forever between our stack and the caller's newest
    // continuation; the bench abandons us mid-bounce at teardown.
    sim::internal::fcontext_t back = t.fctx;
    for (;;) {
      back = sim::internal::jump_fcontext(back, nullptr).fctx;
    }
  }
};

void BM_BareSwitchRaw(benchmark::State& state) {
  std::vector<char> stack(16 * 1024);
  sim::internal::fcontext_t fiber = sim::internal::make_fcontext(
      stack.data() + stack.size(), stack.size(), &BareRawPingPong::entry);
  fiber = sim::internal::jump_fcontext(fiber, nullptr).fctx;
  for (auto _ : state) {
    fiber = sim::internal::jump_fcontext(fiber, nullptr).fctx;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BareSwitchRaw);

void BM_BareSwitchSigsetjmp(benchmark::State& state) {
  // Two save/restore pairs, matching the four primitive operations of one
  // fiber round trip (savemask=0: no signal-mask syscall).
  for (auto _ : state) {
    sigjmp_buf buf;
    if (sigsetjmp(buf, 0) == 0) siglongjmp(buf, 1);
    if (sigsetjmp(buf, 0) == 0) siglongjmp(buf, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BareSwitchSigsetjmp);

// Ping storm: N processes all sleeping on short staggered timers -- a
// large live population churning through the wakeup queue.
void BM_PingStorm(benchmark::State& state) {
  const int n = int(state.range(0));
  const int rounds = 10;
  for (auto _ : state) {
    sim::Kernel kernel;
    for (int i = 0; i < n; ++i) {
      kernel.spawn("p", [&, i](sim::Context& ctx) {
        for (int r = 0; r < rounds; ++r) ctx.sleep(msec(1 + i % 7));
      });
    }
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * rounds);
}
BENCHMARK(BM_PingStorm)->Arg(10000)->Iterations(1);

// Horizon scan: the sharded coordinator's per-window read,
// Kernel::next_live_event_time(), on a kernel holding n sleepers.  Sleeper
// i wakes at (i + 1) ms and every fourth one is killed, so its entry stays
// queued but stale -- the earliest entry of all among them.  The spacing
// keeps each wheel slot's population the same whatever n is: an exact
// minimum read from the front slots costs the same at 256 and 32768
// sleepers, where a walk of every entry costs ~100x more.  main() gates
// that ratio.
void BM_HorizonScan(benchmark::State& state) {
  const int n = int(state.range(0));
  sim::KernelOptions options;
  options.fiber_stack_bytes = 64 << 10;
  sim::Kernel kernel(1, options);
  std::vector<sim::ProcessHandle> sleepers;
  sleepers.reserve(std::size_t(n));
  for (int i = 0; i < n; ++i) {
    sleepers.push_back(kernel.spawn(
        "sleeper", [i](sim::Context& ctx) { ctx.sleep(msec(i + 1)); }));
  }
  kernel.run_until(kEpoch);  // every sleeper parks on its timer
  for (int i = 0; i < n; i += 4) kernel.kill(*sleepers[std::size_t(i)]);
  kernel.run_until(kEpoch);  // the killed unwind; their timers go stale
  if (kernel.next_live_event_time() != kEpoch + msec(2)) {
    state.SkipWithError("unexpected live minimum");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.next_live_event_time());
  }
  state.SetItemsProcessed(state.iterations());
  kernel.shutdown();
}
BENCHMARK(BM_HorizonScan)->Arg(256)->Arg(32768);

// Window cost of the sharded coordinator: a 4-shard kernel, `threads`
// threads, one sleeper per shard waking once per lookahead and no mail, so
// every window is four wakes plus the window loop itself (the phase
// barrier, the horizon scan, the close).  An iteration runs 1,000 windows;
// reports us per window over wall time.  Printed, not gated.
void BM_ShardedWindow(benchmark::State& state) {
  sim::ShardedKernelOptions options;
  options.shards = 4;
  options.threads = std::size_t(state.range(0));
  options.lookahead = msec(1);
  options.kernel.fiber_stack_bytes = 64 << 10;
  sim::ShardedKernel sk(1, options);
  for (std::size_t s = 0; s < sk.shard_count(); ++s) {
    sk.spawn(s, "sleeper", [](sim::Context& ctx) {
      for (;;) ctx.sleep(msec(1));
    });
  }
  TimePoint limit = kEpoch;
  double run_us = 0;
  const std::uint64_t first = sk.windows_run();
  for (auto _ : state) {
    limit += msec(1000);
    const auto start = std::chrono::steady_clock::now();
    sk.run_until(limit);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    run_us += took.count() * 1e6;
  }
  const std::uint64_t windows = sk.windows_run() - first;
  state.SetItemsProcessed(std::int64_t(windows));
  state.counters["us_per_window"] = run_us / double(windows);
  sk.shutdown();
}
BENCHMARK(BM_ShardedWindow)->Arg(1)->Arg(4)->UseManualTime();

// ------------------------------------------------------ kernel primitives

// Spawn/drain latency: create N trivial processes, run them to completion,
// tear the kernel down.  Captures stack materialization plus the first and
// last switch of every process.
void BM_SpawnDrain(benchmark::State& state) {
  const int n = int(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    for (int i = 0; i < n; ++i) {
      kernel.spawn("p", [](sim::Context&) {});
    }
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n);
}
BENCHMARK(BM_SpawnDrain)->Arg(1)->Arg(16)->Arg(128)->Arg(256);

// Context-switch cost: one process sleeping K times (schedule + 2 handoffs
// per event).
void BM_SleepEvents(benchmark::State& state) {
  const int k = int(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    kernel.spawn("sleeper", [&](sim::Context& ctx) {
      for (int i = 0; i < k; ++i) ctx.sleep(msec(1));
    });
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * k);
}
BENCHMARK(BM_SleepEvents)->Arg(1000)->Arg(10000);

// Two processes ping-ponging through events: measures broadcast wake +
// reschedule round trips.
void BM_EventPingPong(benchmark::State& state) {
  const int rounds = int(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    sim::Event ping(kernel), pong(kernel);
    // Latched set/reset so no wake is lost regardless of arrival order.
    kernel.spawn("a", [&](sim::Context& ctx) {
      for (int i = 0; i < rounds; ++i) {
        ping.set();
        ctx.wait(pong);
        pong.reset();
      }
    });
    kernel.spawn("b", [&](sim::Context& ctx) {
      for (int i = 0; i < rounds; ++i) {
        ctx.wait(ping);
        ping.reset();
        pong.set();
      }
    });
    kernel.run();
    if (kernel.live_process_count() != 0) {
      state.SkipWithError("ping-pong deadlocked");
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * rounds);
}
BENCHMARK(BM_EventPingPong)->Arg(1000);

// Resource churn through a contended FIFO.
void BM_ResourceChurn(benchmark::State& state) {
  const int workers = int(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    sim::Resource resource(kernel, 2);
    for (int w = 0; w < workers; ++w) {
      kernel.spawn("w", [&](sim::Context& ctx) {
        for (int i = 0; i < 50; ++i) {
          sim::ResourceLease lease(ctx, resource);
          ctx.sleep(msec(1));
        }
      });
    }
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * workers * 50);
}
BENCHMARK(BM_ResourceChurn)->Arg(4)->Arg(16);

void BM_StoreThroughput(benchmark::State& state) {
  const int items = int(state.range(0));
  for (auto _ : state) {
    sim::Kernel kernel;
    sim::Store<int> store(kernel, 64);
    kernel.spawn("producer", [&](sim::Context& ctx) {
      for (int i = 0; i < items; ++i) store.put(ctx, i);
    });
    kernel.spawn("consumer", [&](sim::Context& ctx) {
      for (int i = 0; i < items; ++i) benchmark::DoNotOptimize(store.get(ctx));
    });
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * items);
}
BENCHMARK(BM_StoreThroughput)->Arg(1000);

// Teardown cost: shutdown() of a kernel holding n fibers parked under a
// ten-frame chain with a cleanup in every frame, timed alone.  Each killed
// fiber unwinds through the whole chain, so this is the per-client price of
// abandoning a world mid-run (the sharded grid bench ends every repetition
// this way).  Reports ns per killed fiber.
[[gnu::noinline]] int park_chain(sim::Context& ctx, sim::Event& never,
                                 int depth) {
  const std::string cleanup(32, 'x');  // a landing pad in every frame
  if (depth == 0) {
    ctx.wait(never);
  } else {
    benchmark::DoNotOptimize(park_chain(ctx, never, depth - 1));
  }
  return int(cleanup.size());
}

void BM_ShutdownParked(benchmark::State& state) {
  const int n = int(state.range(0));
  sim::KernelOptions options;
  options.fiber_stack_bytes = 64 << 10;
  double shutdown_ns = 0;
  for (auto _ : state) {
    sim::Kernel kernel(1, options);
    sim::Event never(kernel);
    for (int i = 0; i < n; ++i) {
      kernel.spawn("parked", [&never](sim::Context& ctx) {
        park_chain(ctx, never, 10);
      });
    }
    kernel.run();
    const auto start = std::chrono::steady_clock::now();
    kernel.shutdown();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    shutdown_ns += took.count() * 1e9;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n);
  state.counters["ns_per_fiber"] =
      shutdown_ns / double(state.iterations()) / double(n);
}
BENCHMARK(BM_ShutdownParked)->Arg(1024)->Arg(4096)->UseManualTime();

// -------------------------------------------------- the retry path

// Fixed clients' try loops: n fibers, each running run_with_discipline
// over a SimClock with no backoff and an attempt that fails at once, so
// every cycle is one attempt and one min_cycle sleep.  Times kernel.run()
// alone and reports ns per failed attempt, the sleep's event and switch
// included.  With many fibers each attempt runs on a cold stack, as in
// fig1_sweep.  The attempt fails with fig1's own refusal, a message past
// std::string's inline capacity.  Also reports allocs_per_attempt, the
// heap allocations of a failed attempt in the steady state (gated at 0 in
// main).
core::Discipline fixed_discipline(int attempts) {
  core::TryOptions options = core::TryOptions::times(attempts);
  options.backoff = core::BackoffPolicy::none();
  return core::Discipline{"fixed", options, nullptr};
}

void spawn_fixed_clients(sim::Kernel& kernel, const core::Discipline& fixed,
                         int n) {
  for (int i = 0; i < n; ++i) {
    kernel.spawn("fixed", [&fixed](sim::Context& ctx) {
      core::SimClock clock(ctx);
      Rng rng = ctx.rng();
      core::DisciplineMetrics metrics;
      (void)core::run_with_discipline(
          clock, rng, fixed,
          [](TimePoint) {
            return Status::unavailable("schedd restarting");
          },
          &metrics);
    });
  }
}

// Allocations per failed attempt: a run of n clients making 2 * attempts
// attempts each, minus one making `attempts`, so spawning, first dispatch
// and teardown cancel and only the per-attempt path counts.
double try_allocs_per_attempt(int n, int attempts) {
  const auto run_allocs = [n](int per_client) {
    const core::Discipline fixed = fixed_discipline(per_client);
    sim::Kernel kernel(1);
    spawn_fixed_clients(kernel, fixed, n);
    const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
    kernel.run();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };
  return double(run_allocs(2 * attempts) - run_allocs(attempts)) /
         double(n * attempts);
}

void BM_TryAttempt(benchmark::State& state) {
  const int n = int(state.range(0));
  const int attempts = 65536 / n;  // per client
  const core::Discipline fixed = fixed_discipline(attempts);
  double run_ns = 0;
  for (auto _ : state) {
    sim::Kernel kernel(1);
    spawn_fixed_clients(kernel, fixed, n);
    const auto start = std::chrono::steady_clock::now();
    kernel.run();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    run_ns += took.count() * 1e9;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n * attempts);
  state.counters["ns_per_attempt"] =
      run_ns / double(state.iterations()) / double(n * attempts);
  state.counters["allocs_per_attempt"] = try_allocs_per_attempt(n, attempts);
}
BENCHMARK(BM_TryAttempt)->Arg(1)->Arg(256)->UseManualTime();

// Teardown of real retrying clients: n fibers, each parked inside the
// attempt of a time-limited run_with_discipline over a SimClock, so a kill
// unwinds the discipline, run_try and its deadline scope -- the chain a
// parked grid client sits under.  Times shutdown() alone and reports ns
// per killed fiber (compare BM_ShutdownParked's synthetic chain).
void BM_ShutdownRetrying(benchmark::State& state) {
  const int n = int(state.range(0));
  sim::KernelOptions options;
  options.fiber_stack_bytes = 64 << 10;
  const core::Discipline aloha{
      "aloha", core::TryOptions::for_time(hours(1)), nullptr};
  double shutdown_ns = 0;
  for (auto _ : state) {
    sim::Kernel kernel(1, options);
    sim::Event never(kernel);
    for (int i = 0; i < n; ++i) {
      kernel.spawn("retrying", [&never, &aloha](sim::Context& ctx) {
        core::SimClock clock(ctx);
        Rng rng = ctx.rng();
        core::DisciplineMetrics metrics;
        (void)core::run_with_discipline(
            clock, rng, aloha,
            [&](TimePoint) {
              ctx.wait(never);
              return Status::success();
            },
            &metrics);
      });
    }
    // Stop well before the one-hour deadlines: every client stays parked
    // under a live deadline scope, as a grid client is at the window end.
    kernel.run_for(sec(1));
    const auto start = std::chrono::steady_clock::now();
    kernel.shutdown();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    shutdown_ns += took.count() * 1e9;
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * n);
  state.counters["ns_per_fiber"] =
      shutdown_ns / double(state.iterations()) / double(n);
}
BENCHMARK(BM_ShutdownRetrying)->Arg(1024)->Arg(4096)->UseManualTime();

// ------------------------------------------- the per-fiber working set

// Times run_for(window) slices of an already-warm kernel and reports ns per
// delivered event.
void time_event_slices(benchmark::State& state, sim::Kernel& kernel,
                       Duration window) {
  double run_ns = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const std::uint64_t before = kernel.events_processed();
    const auto start = std::chrono::steady_clock::now();
    kernel.run_for(window);
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(took.count());
    run_ns += took.count() * 1e9;
    events += kernel.events_processed() - before;
  }
  state.SetItemsProcessed(int64_t(events));
  state.counters["ns_per_event"] = events > 0 ? run_ns / double(events) : 0;
}

// The per-fiber curve (ROADMAP item 6): n live sleepers, each waking every
// 1-7 ms of virtual time, so consecutive events wake different fibers and
// every dispatch reads a Process and a stack top the other n - 1 have had
// time to evict.  ns per event against n is the cost of the per-fiber
// working set.  Printed, not gated.
void BM_FiberCurve(benchmark::State& state) {
  const int n = int(state.range(0));
  sim::Kernel kernel(1);
  for (int i = 0; i < n; ++i) {
    kernel.spawn("sleeper", [](sim::Context& ctx) {
      Rng& rng = ctx.rng();
      while (true) ctx.sleep(usec(1000 + rng.uniform_int(0, 6000)));
    });
  }
  kernel.run_for(msec(20));  // warm: every fiber materialized and parked
  time_event_slices(state, kernel, msec(10));
  kernel.shutdown();
}
BENCHMARK(BM_FiberCurve)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->UseManualTime();

// The Fixed collapse pattern: n fibers in lockstep, each sleeping the same
// 100 ms, so every round lands n wakeups on one microsecond tick, cascaded
// down from a coarse wheel slot and popped from the ready run.  Reports ns
// per event.  Printed, not gated.
void BM_SameInstantBurst(benchmark::State& state) {
  const int n = int(state.range(0));
  sim::Kernel kernel(1);
  for (int i = 0; i < n; ++i) {
    kernel.spawn("lockstep", [](sim::Context& ctx) {
      while (true) ctx.sleep(msec(100));
    });
  }
  kernel.run_for(msec(1));  // every fiber materialized and parked
  time_event_slices(state, kernel, msec(100));
  kernel.shutdown();
}
BENCHMARK(BM_SameInstantBurst)->Arg(400)->UseManualTime();

// Console reporter that also captures each run's items/sec, and the
// counters main reports or gates, so main can feed the headline numbers
// (and the switch ratios) to the report.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        items_per_sec[run.benchmark_name()] = double(it->second);
      }
      for (const char* name : {"allocs_per_attempt", "ns_per_event"}) {
        const auto counter = run.counters.find(name);
        if (counter != run.counters.end()) {
          counters[run.benchmark_name() + ":" + name] =
              double(counter->second);
        }
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::map<std::string, double> items_per_sec;
  std::map<std::string, double> counters;  // "benchmark:counter"
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  ethergrid::bench::Report report("micro_sim");
  for (const auto& [name, rate] : reporter.items_per_sec) {
    report.metric(name, rate);
  }
  // The curve and burst ns/event, and each BM_TryAttempt row's
  // allocations, ride the report as printed numbers.
  double try_allocs = -1;  // the worst BM_TryAttempt row; -1: none ran
  for (const auto& [name, value] : reporter.counters) {
    report.metric(name, value);
    if (name.rfind("BM_TryAttempt/", 0) == 0 &&
        name.find(":allocs_per_attempt") != std::string::npos) {
      try_allocs = std::max(try_allocs, value);
    }
  }
  // The bare-primitive ratio is where the assembly switch must win: >= 2x
  // libc's sigsetjmp save/restore pair, measured in the same run.
  const auto bare_raw = reporter.items_per_sec.find("BM_BareSwitchRaw");
  const auto bare_sjlj =
      reporter.items_per_sec.find("BM_BareSwitchSigsetjmp");
  if (bare_raw != reporter.items_per_sec.end() &&
      bare_sjlj != reporter.items_per_sec.end() && bare_sjlj->second > 0) {
    const double ratio = bare_raw->second / bare_sjlj->second;
    report.metric("bare_raw_vs_sigsetjmp_ratio", ratio);
    report.shape(ratio >= 2.0);
    std::printf("bare raw/sigsetjmp switch ratio: %.1fx -> %s\n", ratio,
                ratio >= 2.0 ? "OK" : "MISMATCH");
  }

  // Perf gate: with ETHERGRID_BENCH_BASELINE pointing at a baseline
  // BENCH_results.json, the event-queue hot-path benchmarks must hold at
  // least half their recorded items/sec.  These ARE wall-clock numbers, so
  // the threshold is deliberately loose: shared CI runners (and this
  // repo's single-vCPU dev VM) swing 20-75% run to run, and the gate
  // exists to catch the order-of-magnitude regressions an event-queue
  // change can cause (accidental O(n) scheduling, a busted fast path),
  // not single-digit drift.  A skipped benchmark (filtered run) skips its
  // gate.
  int failures = 0;
  // The horizon scan must not grow with queue depth: a within-run ratio,
  // so runner speed cancels out and no baseline is needed.  An O(depth)
  // walk reads ~100x here; the exact bitmap-guided minimum about 1x.
  const auto scan_small = reporter.items_per_sec.find("BM_HorizonScan/256");
  const auto scan_large = reporter.items_per_sec.find("BM_HorizonScan/32768");
  if (scan_small != reporter.items_per_sec.end() &&
      scan_large != reporter.items_per_sec.end() && scan_large->second > 0) {
    const double ratio = scan_small->second / scan_large->second;
    report.metric("horizon_scan_32768_vs_256_cost", ratio);
    report.shape(ratio <= 4.0);
    if (ratio > 4.0) {
      ++failures;
      std::fprintf(stderr,
                   "micro_sim: a horizon scan over 32768 sleepers costs "
                   "%.1fx one over 256 (gate: <= 4x)\n",
                   ratio);
    } else {
      std::printf("horizon scan 32768 vs 256 sleepers: %.2fx cost -> OK\n",
                  ratio);
    }
  }

  const char* baseline_path = std::getenv("ETHERGRID_BENCH_BASELINE");
  // A failed attempt allocates nothing: its Status message is a literal
  // held by pointer.  An exact count, so the gate is exact too.
  if (try_allocs >= 0) {
    report.metric("try_allocs_per_attempt", try_allocs);
  }
  if (try_allocs >= 0 && baseline_path && *baseline_path) {
    const double baseline = ethergrid::bench::Report::read_baseline_metric(
        baseline_path, "micro_sim", "try_allocs_per_attempt");
    report.shape(try_allocs <= baseline);
    if (try_allocs > baseline) {
      ++failures;
      std::fprintf(stderr,
                   "micro_sim: a failed attempt makes %.4f heap allocations "
                   "(baseline %.4f)\n",
                   try_allocs, baseline);
    } else {
      std::printf("failed-attempt allocations: %.4f per attempt -> OK\n",
                  try_allocs);
    }
  }
  if (baseline_path && *baseline_path) {
    for (const char* gated : {"BM_SleepEvents/1000", "BM_SleepEvents/10000",
                              "BM_EventPingPong/1000"}) {
      const auto it = reporter.items_per_sec.find(gated);
      if (it == reporter.items_per_sec.end()) continue;
      const double baseline = ethergrid::bench::Report::read_baseline_metric(
          baseline_path, "micro_sim", gated);
      if (baseline <= 0) continue;
      const double fraction = it->second / baseline;
      report.shape(fraction >= 0.5);
      if (fraction < 0.5) {
        ++failures;
        std::fprintf(stderr,
                     "micro_sim: %s at %.3gx of baseline items/sec "
                     "(baseline %.3g/s, now %.3g/s) breaches the 0.5x gate\n",
                     gated, fraction, baseline, it->second);
      } else {
        std::printf("%s: %.2fx of baseline -> OK\n", gated, fraction);
      }
    }
  }
  return failures == 0 ? 0 : 1;
}
