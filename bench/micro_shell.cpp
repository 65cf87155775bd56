// Microbenchmarks: shell front end and the Ethernet core primitives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "core/backoff.hpp"
#include "core/retry.hpp"
#include "core/sim_clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posix/posix_executor.hpp"
#include "report.hpp"
#include "shell/interpreter.hpp"
#include "shell/lexer.hpp"
#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"
#include "sim/kernel.hpp"

// Global allocation counter feeding the perf gate in main(): the number of
// heap allocations in a fixed-seed simulated run is exactly reproducible,
// unlike wall-clock throughput on a shared machine.
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

const char* kScript = R"(
# representative ftsh fragment
try for 1 hour
  forany host in xxx yyy zzz
    try for 5 minutes
      fetch-file ${host} filename
    end
  end
catch
  rm -f filename
  failure
end
n = 4
while ${n} .gt. 0
  n = ${n} .sub. 1
end
)";

void BM_Lex(benchmark::State& state) {
  for (auto _ : state) {
    auto result = shell::lex(kScript);
    benchmark::DoNotOptimize(result.tokens.size());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(std::string(kScript).size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto result = shell::parse_script(kScript);
    benchmark::DoNotOptimize(result.script.get());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) *
                          int64_t(std::string(kScript).size()));
}
BENCHMARK(BM_Parse);

void BM_InterpretEchoLoop(benchmark::State& state) {
  const std::string script =
      "i=0\nwhile ${i} .lt. 100\n  i = ${i} .add. 1\nend";
  auto parsed = shell::parse_script(script);
  for (auto _ : state) {
    sim::Kernel kernel;
    shell::SimExecutor executor(kernel);
    kernel.spawn("bench", [&](sim::Context& ctx) {
      shell::SimExecutor::ContextBinding binding(executor, ctx);
      shell::Interpreter interpreter(executor);
      shell::Environment env;
      Status s = interpreter.run(*parsed.script, env);
      benchmark::DoNotOptimize(s.ok());
    });
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_InterpretEchoLoop);

// ---- observer overhead (the "compiles down to a null check" contract) ----
//
// 100 commands through the sim executor: the span-emission hot path.  The
// Off case holds a null ObserverSet* everywhere; the On case records into
// a TraceRecorder + MetricsRegistry.

const char kObserverScript[] =
    "i=0\nwhile ${i} .lt. 100\n  true\n  i = ${i} .add. 1\nend";
// The same loop run twice as long: the allocation gate below differences
// the two to separate per-command cost from setup.
const char kObserverScriptDouble[] =
    "i=0\nwhile ${i} .lt. 200\n  true\n  i = ${i} .add. 1\nend";

Status run_script(const shell::Script& script, obs::ObserverSet* observers) {
  sim::Kernel kernel;
  shell::SimExecutor executor(kernel);
  executor.set_observers(observers);
  shell::InterpreterOptions options;
  options.observers = observers;
  Status result;
  kernel.spawn("bench", [&](sim::Context& ctx) {
    shell::SimExecutor::ContextBinding binding(executor, ctx);
    shell::Interpreter interpreter(executor, options);
    shell::Environment env;
    result = interpreter.run(script, env);
  });
  kernel.run();
  return result;
}

Status run_observer_workload(obs::ObserverSet* observers) {
  static const shell::ParseResult parsed = shell::parse_script(kObserverScript);
  return run_script(*parsed.script, observers);
}

void BM_InterpretObserversOff(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_observer_workload(nullptr).ok());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_InterpretObserversOff);

void BM_InterpretObserversOn(benchmark::State& state) {
  for (auto _ : state) {
    obs::TraceRecorder trace("bench");
    obs::MetricsRegistry metrics;
    obs::ObserverSet set;
    set.add(&trace);
    set.add(&metrics);
    benchmark::DoNotOptimize(run_observer_workload(&set).ok());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_InterpretObserversOn);

// Emission cost in isolation: one begin/end pair through the set, no
// interpreter or kernel around it.  Splits the observer budget into "what
// the sinks cost" vs "what the interpreter adds".
void BM_SpanEmitMetrics(benchmark::State& state) {
  obs::MetricsRegistry metrics;
  obs::ObserverSet set;
  set.add(&metrics);
  obs::Span span;
  span.kind = obs::SpanKind::kCommand;
  span.name = "true";
  for (auto _ : state) {
    set.begin_span(span);
    set.end_span(span);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SpanEmitMetrics);

void BM_SpanEmitTrace(benchmark::State& state) {
  obs::TraceRecorder trace("bench");
  obs::ObserverSet set;
  set.add(&trace);
  obs::Span span;
  span.kind = obs::SpanKind::kCommand;
  span.name = "true";
  span.detail = "true";
  for (auto _ : state) {
    set.begin_span(span);
    set.end_span(span);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_SpanEmitTrace);

void BM_BackoffNext(benchmark::State& state) {
  Rng rng(1);
  core::Backoff backoff(core::BackoffPolicy::paper_default(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backoff.next());
    if (backoff.failures() > 40) backoff.reset();
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BackoffNext);

void BM_RunTrySucceedFirst(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel kernel;
    kernel.spawn("bench", [&](sim::Context& ctx) {
      core::SimClock clock(ctx);
      Rng rng = ctx.rng();
      for (int i = 0; i < 100; ++i) {
        Status s = core::run_try(clock, rng, core::TryOptions::times(3),
                                 [](TimePoint) { return Status::success(); });
        benchmark::DoNotOptimize(s.ok());
      }
    });
    kernel.run();
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * 100);
}
BENCHMARK(BM_RunTrySucceedFirst);

// ---- process-supervision latency (the event-driven engine's contract) ----
//
// Both cases set poll_interval far above the expected latency: if a fixed
// polling term ever re-enters the supervision hot path, the reported times
// jump to poll_interval and the regression is unmissable.

// Exit-to-return: total run() time for a trivial command with stdout sent
// to a file, so child exit is the *only* wake event the supervisor gets.
void BM_PosixExitToReturn(benchmark::State& state) {
  posix::PosixExecutorOptions o;
  o.poll_interval = msec(250);
  posix::PosixExecutor ex(o);
  for (auto _ : state) {
    shell::CommandInvocation i;
    i.argv = {"true"};
    i.stdout_file = "/dev/null";
    auto r = ex.run(i);
    benchmark::DoNotOptimize(r.status.ok());
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_PosixExitToReturn)->Unit(benchmark::kMillisecond)->UseRealTime();

// True exit-to-return latency: the exit_probe helper prints a nanosecond
// timestamp and _exits; the measured (manual) iteration time is the gap
// between that instant and run() returning -- EOF drain + exit wake + reap
// + status assembly, with fork/exec startup and child teardown excluded.
void BM_PosixExitToReturnLatency(benchmark::State& state) {
  posix::PosixExecutorOptions o;
  o.poll_interval = msec(250);
  posix::PosixExecutor ex(o);
  for (auto _ : state) {
    shell::CommandInvocation i;
    i.argv = {ETHERGRID_EXIT_PROBE_PATH};
    auto r = ex.run(i);
    const auto returned = std::chrono::system_clock::now();
    const long long exit_ns = std::atoll(r.out.c_str());
    const long long returned_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            returned.time_since_epoch())
            .count();
    state.SetIterationTime(
        std::max(0.0, double(returned_ns - exit_ns) / 1e9));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_PosixExitToReturnLatency)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Kill-to-reap: deadline already expired, so run() immediately SIGTERMs the
// session and the measured time is kill -> death -> reap -> return.
void BM_PosixKillToReap(benchmark::State& state) {
  posix::PosixExecutorOptions o;
  o.poll_interval = msec(250);
  o.kill_grace = msec(100);
  posix::PosixExecutor ex(o);
  for (auto _ : state) {
    shell::CommandInvocation i;
    i.argv = {"sleep", "30"};
    i.deadline = ex.now() - sec(1);
    auto r = ex.run(i);
    benchmark::DoNotOptimize(r.status.code() == StatusCode::kTimeout);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_PosixKillToReap)->Unit(benchmark::kMillisecond)->UseRealTime();

// Timed outside google-benchmark so the number lands in the Report entry
// (and the perf gate below) without parsing benchmark output.  Best of
// three windows: scheduler noise only ever slows a run down, so the max
// is the stable statistic to gate on.
double measure_interpret_per_sec(ethergrid::obs::ObserverSet* observers) {
  run_observer_workload(observers);  // warmup
  double best = 0;
  for (int window = 0; window < 3; ++window) {
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0;
    std::int64_t commands = 0;
    do {
      if (!run_observer_workload(observers).ok()) return 0;
      commands += 100;
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < 0.25);
    best = std::max(best, double(commands) / elapsed);
  }
  return best;
}

// The gate statistics: heap allocations of observers-off workload runs.
// Wall-clock throughput on a shared machine swings far more than any sane
// regression threshold, but the allocation count of a fixed-seed simulated
// run is exactly reproducible -- and observer work in the off path (span
// construction, string formatting) cannot hide from it.  Counted via the
// global operator new hooks above.  Runs of 100 and 200 commands split
// the count: their difference is the steady-state cost of 100 commands,
// and what is left of the shorter run is setup (kernel, executor, builtin
// registration, the process), which is not per command.
struct AllocSplit {
  double per_command = 0;  // steady state
  double setup = 0;        // per run
};

std::int64_t count_run_allocs(const shell::Script& script) {
  run_script(script, nullptr);  // settle one-time statics
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run_script(script, nullptr);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

AllocSplit measure_allocs_observers_off() {
  const shell::ParseResult once = shell::parse_script(kObserverScript);
  const shell::ParseResult twice = shell::parse_script(kObserverScriptDouble);
  const std::int64_t short_run = count_run_allocs(*once.script);
  const std::int64_t long_run = count_run_allocs(*twice.script);
  AllocSplit split;
  split.per_command = double(long_run - short_run) / 100.0;
  split.setup = double(short_run) - 100.0 * split.per_command;
  return split;
}

}  // namespace

int main(int argc, char** argv) {
  ethergrid::bench::Report report("micro_shell");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Observer overhead headline numbers + the run's own metrics export.
  const double off = measure_interpret_per_sec(nullptr);
  ethergrid::obs::MetricsRegistry registry;
  ethergrid::obs::ObserverSet set;
  set.add(&registry);
  const double on = measure_interpret_per_sec(&set);
  const AllocSplit allocs_off = measure_allocs_observers_off();
  const double overhead_pct = off > 0 ? 100.0 * (off - on) / off : 0.0;
  report.metric("interpret_per_sec_observers_off", off);
  report.metric("interpret_per_sec_observers_on", on);
  report.metric("steady_allocs_per_command", allocs_off.per_command);
  report.metric("setup_allocs_per_run", allocs_off.setup);
  if (off > 0) {
    report.metric("observer_overhead_pct", overhead_pct);
  }
  report.set_observability(registry.to_json());

  // Perf gate, absolute: with observers off, a command in the steady state
  // allocates nothing -- the "no observer == one null check" contract, in
  // the style of tests/shell/interpreter_alloc_test.cpp.  Exactly
  // reproducible, so it cannot flake on a loaded machine, and any
  // per-command allocation (span construction, string formatting leaking
  // into the off path) trips it.
  report.shape(allocs_off.per_command == 0);
  if (allocs_off.per_command != 0) {
    std::fprintf(stderr,
                 "micro_shell: observers-off commands allocate %.2f times "
                 "each in the steady state (must be 0)\n",
                 allocs_off.per_command);
    return 1;
  }
  // With ETHERGRID_BENCH_BASELINE pointing at a baseline BENCH_results.json,
  // setup allocations are gated loosely: a handful more is refactoring
  // noise (a new member, a reserved vector), half again as many is a leak
  // of work into every run.
  const char* baseline_path = std::getenv("ETHERGRID_BENCH_BASELINE");
  if (baseline_path && *baseline_path) {
    const double baseline_setup = ethergrid::bench::Report::read_baseline_metric(
        baseline_path, "micro_shell", "setup_allocs_per_run");
    if (baseline_setup > 0) {
      report.shape(allocs_off.setup <= 1.5 * baseline_setup);
      if (allocs_off.setup > 1.5 * baseline_setup) {
        std::fprintf(stderr,
                     "micro_shell: observers-off setup allocations %.0f/run "
                     "exceed 1.5x the baseline %.0f/run\n",
                     allocs_off.setup, baseline_setup);
        return 1;
      }
    }
    // Live metrics recording must cost under 10% of
    // observers-off throughput.  Absolute threshold rather than a baseline
    // delta: the contract is "observability is effectively free", not "no
    // worse than last week".
    report.shape(overhead_pct < 10.0);
    if (overhead_pct >= 10.0) {
      std::fprintf(stderr,
                   "micro_shell: observer overhead %.1f%% breaches the 10%% "
                   "budget (off %.0f/s, on %.0f/s)\n",
                   overhead_pct, off, on);
      return 1;
    }
  }
  return 0;
}
