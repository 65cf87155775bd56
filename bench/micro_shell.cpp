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
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto result = shell::parse_script(kScript);
    benchmark::DoNotOptimize(result.script.get());
  }
  state.counters["parse_allocs_per_parse"] =
      double(g_alloc_count.load(std::memory_order_relaxed) - before) /
      double(state.iterations());
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

// The gate statistics: heap allocations and observer callbacks of
// fixed-count workload runs.  Wall-clock throughput on a shared machine
// swings far more than any sane regression threshold, but these counts of
// a fixed-seed simulated run are exactly reproducible -- and observer work
// in the off path (span construction, string formatting), or extra
// emission and sink allocation in the on path, cannot hide from them.
// Allocations are counted via the global operator new hooks above,
// callbacks by a CallbackCounter beside the MetricsRegistry.  Runs of 100
// and 200 commands split each count: their difference is the steady-state
// cost of 100 commands, and what is left of the shorter run is setup
// (kernel, executor, builtin registration, the process), not per command.

// Counts every callback an ObserverSet fans out to it.
class CallbackCounter final : public obs::Observer {
 public:
  void on_span_begin(const obs::Span&) override { ++calls; }
  void on_span_end(const obs::Span&) override { ++calls; }
  void on_event(const obs::ObsEvent&) override { ++calls; }
  void on_output(obs::StreamKind, std::string_view) override { ++calls; }
  void on_log(const obs::ObsLogLine&) override { ++calls; }
  std::int64_t calls = 0;
};

struct RunCost {
  std::int64_t allocs = 0;
  std::int64_t callbacks = 0;
};

// One counted run after a settling run (one-time statics, registry keys).
// `observed` attaches a MetricsRegistry, as the live-metrics path does.
RunCost count_run(const shell::Script& script, bool observed) {
  obs::MetricsRegistry registry;
  CallbackCounter counter;
  obs::ObserverSet set;
  set.add(&registry);
  set.add(&counter);
  obs::ObserverSet* observers = observed ? &set : nullptr;
  run_script(script, observers);
  counter.calls = 0;
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run_script(script, observers);
  return {g_alloc_count.load(std::memory_order_relaxed) - before,
          counter.calls};
}

struct SteadySplit {
  double allocs_per_command = 0;     // steady state
  double setup_allocs = 0;           // per run
  double callbacks_per_command = 0;  // steady state
};

SteadySplit measure_steady_state(bool observed) {
  const shell::ParseResult once = shell::parse_script(kObserverScript);
  const shell::ParseResult twice = shell::parse_script(kObserverScriptDouble);
  const RunCost short_run = count_run(*once.script, observed);
  const RunCost long_run = count_run(*twice.script, observed);
  SteadySplit split;
  split.allocs_per_command = double(long_run.allocs - short_run.allocs) / 100.0;
  split.setup_allocs =
      double(short_run.allocs) - 100.0 * split.allocs_per_command;
  split.callbacks_per_command =
      double(long_run.callbacks - short_run.callbacks) / 100.0;
  return split;
}

// The traced retry path: `tries` failing `try 3 times` statements, each
// backing off between attempts, with or without the observers
// `ftsh --trace-out` installs (a TraceRecorder and a MetricsRegistry,
// fresh in the counted region), as in
// tests/shell/interpreter_alloc_test.cpp.
std::int64_t count_try_loop_run(int tries, bool traced) {
  const shell::ParseResult parsed = shell::parse_script(
      "i = 0\nwhile ${i} .lt. " + std::to_string(tries) +
      "\n  try 3 times\n    false\n  catch\n  end\n  i = ${i} .add. 1\nend");
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  {
    obs::TraceRecorder trace("ftsh");
    obs::MetricsRegistry metrics;
    obs::ObserverSet set;
    set.add(&trace);
    set.add(&metrics);
    run_script(*parsed.script, traced ? &set : nullptr);
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

// Steady-state heap allocations the trace-out observers add per attempt:
// a 200-try run minus a 100-try run (300 attempts), traced, less the same
// difference untraced (the try loop's own cost).  The parses cancel out.
double measure_traced_allocs_per_attempt() {
  (void)count_try_loop_run(1, true);  // settle statics (interned sites)
  const std::int64_t traced =
      count_try_loop_run(200, true) - count_try_loop_run(100, true);
  const std::int64_t untraced =
      count_try_loop_run(200, false) - count_try_loop_run(100, false);
  return double(traced - untraced) / 300.0;
}

// Heap allocations of one parse of kScript, after a settling parse.
double measure_parse_allocs() {
  (void)shell::parse_script(kScript);
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  (void)shell::parse_script(kScript);
  return double(g_alloc_count.load(std::memory_order_relaxed) - before);
}

// Gate helper: `value` must not exceed the baseline's `key`.  A baseline
// without the key reads 0, which holds the quantity at 0.
bool within_baseline(bench::Report& report, const char* baseline_path,
                     const char* key, double value) {
  const double baseline = bench::Report::read_baseline_metric(
      baseline_path, "micro_shell", key);
  const bool ok = value <= baseline;
  report.shape(ok);
  if (!ok) {
    std::fprintf(stderr, "micro_shell: %s %.2f exceeds the baseline %.2f\n",
                 key, value, baseline);
  }
  return ok;
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
  const SteadySplit steady_off = measure_steady_state(/*observed=*/false);
  const SteadySplit steady_on = measure_steady_state(/*observed=*/true);
  const double parse_allocs = measure_parse_allocs();
  const double traced_allocs = measure_traced_allocs_per_attempt();
  report.metric("interpret_per_sec_observers_off", off);
  report.metric("interpret_per_sec_observers_on", on);
  report.metric("steady_allocs_per_command", steady_off.allocs_per_command);
  report.metric("setup_allocs_per_run", steady_off.setup_allocs);
  report.metric("observed_allocs_per_command", steady_on.allocs_per_command);
  report.metric("observer_callbacks_per_command",
                steady_on.callbacks_per_command);
  report.metric("parse_allocs_per_parse", parse_allocs);
  report.metric("traced_allocs_per_attempt", traced_allocs);
  // Reported, not gated: a wall-clock ratio of two short windows on a
  // shared machine, which swings by more than its own size run to run.
  if (off > 0) {
    report.metric("observer_overhead_pct", 100.0 * (off - on) / off);
  }
  report.set_observability(registry.to_json());

  // Perf gate, absolute: with observers off, a command in the steady state
  // allocates nothing -- the "no observer == one null check" contract, in
  // the style of tests/shell/interpreter_alloc_test.cpp.  Exactly
  // reproducible, so it cannot flake on a loaded machine, and any
  // per-command allocation (span construction, string formatting leaking
  // into the off path) trips it.
  report.shape(steady_off.allocs_per_command == 0);
  if (steady_off.allocs_per_command != 0) {
    std::fprintf(stderr,
                 "micro_shell: observers-off commands allocate %.2f times "
                 "each in the steady state (must be 0)\n",
                 steady_off.allocs_per_command);
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
      report.shape(steady_off.setup_allocs <= 1.5 * baseline_setup);
      if (steady_off.setup_allocs > 1.5 * baseline_setup) {
        std::fprintf(stderr,
                     "micro_shell: observers-off setup allocations %.0f/run "
                     "exceed 1.5x the baseline %.0f/run\n",
                     steady_off.setup_allocs, baseline_setup);
        return 1;
      }
    }
    // Live metrics recording stays as cheap as recorded: per steady-state
    // command, no more observer callbacks (emission work) and no more heap
    // allocations (sink work) than the baseline.  Both exact counts, so
    // any growth fails, and no runner noise can.
    const bool callbacks_ok =
        within_baseline(report, baseline_path, "observer_callbacks_per_command",
                        steady_on.callbacks_per_command);
    const bool allocs_ok =
        within_baseline(report, baseline_path, "observed_allocs_per_command",
                        steady_on.allocs_per_command);
    // The same for a failing try under the trace-out observers: per
    // steady-state attempt, no more heap allocations than the baseline (a
    // log line rendered for no reader trips it).
    const bool traced_ok =
        within_baseline(report, baseline_path, "traced_allocs_per_attempt",
                        traced_allocs);
    // A parse costs the Script and its arena's blocks; a per-token or
    // per-node allocation creeping back in trips this exact count.
    const bool parse_ok = within_baseline(
        report, baseline_path, "parse_allocs_per_parse", parse_allocs);
    if (!callbacks_ok || !allocs_ok || !traced_ok || !parse_ok) return 1;
  }
  return 0;
}
