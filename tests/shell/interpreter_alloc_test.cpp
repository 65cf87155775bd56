// Allocation-count regression gates for the interpreter hot path.
//
// Wall-clock throughput flakes on shared CI machines; the heap allocation
// count of a fixed-seed simulated workload is exactly reproducible.  These
// tests pin that count for the same 100-command workload the micro_shell
// benchmark gates on, with observers off AND on, so a per-command
// allocation sneaking back into either path fails ctest instead of only
// nudging a benchmark number nobody reads.  A failing, backing-off try
// under the trace-out observers is pinned per attempt the same way.
//
// The trace export and the try loop get the same treatment: the export's
// allocation count must not depend on the number of records exported, and
// a try whose first attempt succeeds allocates nothing.
//
// This file lives in its own test binary: the global operator new/delete
// replacements below are binary-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/discipline.hpp"
#include "core/retry.hpp"
#include "core/sim_clock.hpp"
#include "obs/metrics.hpp"
#include "obs/site.hpp"
#include "obs/trace.hpp"
#include "shell/interpreter.hpp"
#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"
#include "sim/kernel.hpp"

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

namespace ethergrid::shell {
namespace {

// The micro_shell observer workload: 100 trivial commands plus the loop
// arithmetic driving them.
constexpr char kScript[] =
    "i=0\nwhile ${i} .lt. 100\n  true\n  i = ${i} .add. 1\nend";

Status run_workload(const Script& script, obs::ObserverSet* observers) {
  sim::Kernel kernel;
  SimExecutor executor(kernel);
  executor.set_observers(observers);
  InterpreterOptions options;
  options.observers = observers;
  Status result;
  kernel.spawn("bench", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    Interpreter interpreter(executor, options);
    Environment env;
    result = interpreter.run(script, env);
  });
  kernel.run();
  return result;
}

std::int64_t count_allocs(const std::function<void()>& fn) {
  const std::int64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(InterpreterAllocTest, ObserversOffBudget) {
  auto parsed = parse_script(kScript);
  ASSERT_TRUE(parsed.status.ok());
  // One warmup run settles one-time statics (interned sites, lazily
  // initialised library state); after it the count is exactly reproducible.
  ASSERT_TRUE(run_workload(*parsed.script, nullptr).ok());
  const std::int64_t allocs = count_allocs(
      [&] { ASSERT_TRUE(run_workload(*parsed.script, nullptr).ok()); });
  // Kernel + executor setup (builtin registration, process bookkeeping)
  // accounts for essentially all of this; the 100-iteration command loop
  // itself must contribute zero.  Seed value was 218.
  EXPECT_LE(allocs, 110) << "observers-off workload allocation regression";
}

TEST(InterpreterAllocTest, ObserversOnBudget) {
  auto parsed = parse_script(kScript);
  ASSERT_TRUE(parsed.status.ok());
  ASSERT_TRUE(run_workload(*parsed.script, nullptr).ok());  // settle statics
  // Fresh trace + metrics inside the measured region: the count includes
  // their block/arena growth, so the budget covers the true cost of turning
  // full observability on for this workload.
  const std::int64_t allocs = count_allocs([&] {
    obs::TraceRecorder trace("bench");
    obs::MetricsRegistry metrics;
    obs::ObserverSet set;
    set.add(&trace);
    set.add(&metrics);
    ASSERT_TRUE(run_workload(*parsed.script, &set).ok());
  });
  // 201 spans land in one pre-sized record block; the arena and histogram
  // reservoirs grow amortised.  Per-span steady-state cost must stay zero.
  EXPECT_LE(allocs, 200) << "observers-on workload allocation regression";
}

// `tries` failing `try 3 times` statements, each backing off between its
// attempts and falling into an empty catch.  `traced` attaches the
// observers `ftsh --trace-out` installs, a TraceRecorder and a
// MetricsRegistry, fresh inside the counted region.  Every attempt then
// opens an attempt span and a command span and logs the failed command;
// every backoff emits an event; every try logs its summary and its catch
// entry.
std::int64_t try_loop_allocs(int tries, bool traced) {
  const std::string source = "i = 0\nwhile ${i} .lt. " +
                             std::to_string(tries) +
                             "\n  try 3 times\n    false\n  catch\n  end\n"
                             "  i = ${i} .add. 1\nend";
  const ParseResult parsed = parse_script(source);
  EXPECT_TRUE(parsed.status.ok());
  return count_allocs([&] {
    obs::TraceRecorder trace("ftsh");
    obs::MetricsRegistry metrics;
    obs::ObserverSet set;
    set.add(&trace);
    set.add(&metrics);
    ASSERT_TRUE(
        run_workload(*parsed.script, traced ? &set : nullptr).ok());
  });
}

// Steady-state heap allocations the trace-out observers add to a failing
// try: a run of 200 tries minus a run of 100 (300 attempts), traced,
// less the same difference untraced.  The untraced difference is the try
// loop's own cost, which depends on the build (100 optimized, 900 in a
// debug build).  Log lines render only for an observer that reads them,
// and neither sink does, so what the observers add is three amortised
// growths of the trace's blocks and arena.  Rendering every log line
// eagerly added 1,103.
TEST(InterpreterAllocTest, TracedTryAttemptBudget) {
  (void)try_loop_allocs(1, true);  // settle statics (interned sites)
  const std::int64_t traced =
      try_loop_allocs(200, true) - try_loop_allocs(100, true);
  const std::int64_t untraced =
      try_loop_allocs(200, false) - try_loop_allocs(100, false);
  EXPECT_EQ(traced - untraced, 3) << "traced retry path allocation regression";
}

// 100 tries over a SimClock, each done by its first attempt, the way a
// grid client runs its inlined try loop.  The "try: no attempts made"
// status, past std::string's inline capacity, is built only when a try
// returns it; built up front, it cost one allocation per try (100).
TEST(RunTryAllocTest, SucceedingTriesAllocateNothing) {
  sim::Kernel kernel;
  std::int64_t allocs = -1;
  kernel.spawn("client", [&](sim::Context& ctx) {
    core::SimClock clock(ctx);
    Rng rng = ctx.rng();
    const core::TryOptions options = core::TryOptions::times(3);
    auto try_once = [&] {
      return core::run_try(clock, rng, options,
                           [](TimePoint) { return Status::success(); });
    };
    ASSERT_TRUE(try_once().ok());  // settle one-time state
    allocs = count_allocs([&] {
      for (int i = 0; i < 100; ++i) ASSERT_TRUE(try_once().ok());
    });
  });
  kernel.run();
  EXPECT_EQ(allocs, 0) << "run_try allocates per try";
}

// 100 failing attempts of a Fixed client over a SimClock, each refused the
// way a restarting schedd refuses a condor_submit:
// Status::unavailable("schedd restarting").  The message is a literal,
// held by pointer, so neither the attempt's failure nor the try's result
// allocates; as an owning std::string past the 15-byte inline capacity it
// cost one allocation per attempt (100), nearly every allocation fig1's
// sweep made.  No min_cycle sleep between attempts: debug builds audit
// the queue on every schedule, and the audit's recount allocates
// (micro_sim's BM_TryAttempt gates the path with its sleeps).
TEST(RunTryAllocTest, FailingTriesWithLiteralStatusAllocateNothing) {
  sim::Kernel kernel;
  std::int64_t allocs = -1;
  core::TryOptions options = core::TryOptions::times(100);
  options.backoff = core::BackoffPolicy::none();
  options.min_cycle = Duration(0);
  const core::Discipline fixed{"fixed", options, nullptr};
  kernel.spawn("client", [&](sim::Context& ctx) {
    core::SimClock clock(ctx);
    Rng rng = ctx.rng();
    core::DisciplineMetrics metrics;
    auto refused = [](TimePoint) {
      return Status::unavailable("schedd restarting");
    };
    auto hundred_attempts = [&] {
      return core::run_with_discipline(clock, rng, fixed, refused, &metrics);
    };
    ASSERT_TRUE(hundred_attempts().failed());  // settle one-time state
    allocs = count_allocs([&] {
      const Status last = hundred_attempts();
      ASSERT_EQ(last, Status::unavailable("schedd restarting"));
    });
    EXPECT_EQ(metrics.collisions, 200);
  });
  kernel.run();
  EXPECT_EQ(allocs, 0) << "a failing attempt allocates";
}

// The ftsh_pipeline benchmark's script: a try around a forany of tries, a
// forall of tries, a while loop and `->` captures.
constexpr char kPipelineScript[] = R"(try for 5 minutes
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

TEST(InterpreterAllocTest, ParseBudget) {
  ASSERT_TRUE(parse_script(kPipelineScript).status.ok());  // settle statics
  const std::int64_t allocs = count_allocs([] {
    const ParseResult parsed = parse_script(kPipelineScript);
    ASSERT_TRUE(parsed.status.ok());
  });
  // The Script with its control block, and six small arena blocks holding
  // the source copy and every node; the tokens and the parser's stacks stay
  // in a buffer on the stack.  The seed value was 142: one string per
  // token, one vector per word, group and terminator list.
  EXPECT_EQ(allocs, 7) << "parse allocation regression";
}

// `lines` commands of three words each.
std::int64_t flat_script_allocs(int lines) {
  std::string script;
  for (int i = 0; i < lines; ++i) {
    script += "echo ${x} line" + std::to_string(i) + "\n";
  }
  return count_allocs([&] {
    const ParseResult parsed = parse_script(script);
    ASSERT_TRUE(parsed.status.ok());
    ASSERT_EQ(parsed.script->top.statements.size(), std::size_t(lines));
  });
}

// Past its first small blocks the arena doubles, and the tokens spill from
// the stack buffer into one growing vector, so doubling a script adds a
// block or two, not an allocation per statement.
TEST(InterpreterAllocTest, LargeScriptParsesInAFewBlocks) {
  const std::int64_t half = flat_script_allocs(2000);
  const std::int64_t full = flat_script_allocs(4000);
  EXPECT_LE(full - half, 3) << "parse allocates per statement";
  EXPECT_LE(full, 40);
}

// Records `records` spans and as many instants over a fixed set of names,
// sites and lanes, then counts the allocations of one export.
std::int64_t export_allocs(int records) {
  obs::TraceRecorder trace("export");
  const obs::SiteId site = obs::intern_site("export.site");
  for (int i = 0; i < records; ++i) {
    obs::Span span;
    span.id = static_cast<std::uint64_t>(i) + 1;
    span.parent = span.id / 2;
    span.kind = i % 2 == 0 ? obs::SpanKind::kCommand : obs::SpanKind::kTry;
    span.name = i % 3 == 0 ? "true" : "wget \"http://mirror/file\"";
    span.detail = "argv: wget http://mirror/file\n";
    span.line = i % 40;
    span.track = static_cast<std::uint64_t>(i % 4);
    span.start = TimePoint{} + Duration(1'000'000LL * i);
    span.end = span.start + Duration(12'345);
    span.status = i % 5 == 0 ? Status::timeout("deadline") : Status::success();
    span.attempts = i % 4;
    span.backoff = Duration(250'000LL * (i % 3));
    trace.on_span_end(span);
    obs::ObsEvent event;
    event.kind = obs::ObsEvent::Kind::kBackoff;
    event.time = span.end;
    event.span = span.id;
    event.site = site;
    event.detail = "delay 1.5 s";
    event.value = 0.125 * (i % 9);
    trace.on_event(event);
  }
  std::string json;
  const std::int64_t allocs = count_allocs([&] { json = trace.to_json(); });
  EXPECT_GT(json.size(), static_cast<std::size_t>(records) * 200);
  return allocs;
}

TEST(TraceExportAllocTest, AllocationsDoNotGrowWithRecords) {
  const std::int64_t small = export_allocs(1'000);
  const std::int64_t large = export_allocs(10'000);
  // The output buffer is reserved once; the name fragments, their index
  // and the lane list grow with distinct keys only.
  EXPECT_EQ(small, large) << "trace export allocates per record";
  EXPECT_LE(large, 16);
}

}  // namespace
}  // namespace ethergrid::shell
