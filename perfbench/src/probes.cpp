#include "probes.hpp"

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/discipline.hpp"
#include "grid/fd_table.hpp"
#include "grid/schedd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shell/interpreter.hpp"
#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"
#include "sim/fluid.hpp"
#include "sim/kernel.hpp"
#include "sim/shard.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ethergrid;

namespace {

constexpr int kBatches = 7;

// Median over batches of a per-operation cost.
template <class F>
double median_of(F batch) {
  std::vector<double> costs;
  for (int b = 0; b < kBatches; ++b) costs.push_back(batch());
  return median(std::move(costs));
}

double probe_switch() {
  return median_of([] {
    const int rounds = 20000;
    sim::Kernel kernel;
    sim::Event ping(kernel);
    sim::Event pong(kernel);
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
    const auto t0 = WallClock::now();
    kernel.run();
    return double(nanos_since(t0)) / double(kernel.events_processed());
  });
}

double probe_sleep_event() {
  return median_of([] {
    sim::Kernel kernel;
    for (int i = 0; i < 256; ++i) {
      kernel.spawn("sleeper", [i](sim::Context& ctx) {
        for (int r = 0; r < 100; ++r) ctx.sleep(msec(1 + i % 7));
      });
    }
    const auto t0 = WallClock::now();
    kernel.run();
    return double(nanos_since(t0)) / double(kernel.events_processed());
  });
}

double probe_spawn() {
  sim::Kernel kernel;  // one kernel: later batches reuse pooled processes
  return median_of([&kernel] {
    const int n = 1000;
    const auto t0 = WallClock::now();
    for (int i = 0; i < n; ++i) kernel.spawn("p", [](sim::Context&) {});
    kernel.run();
    return double(nanos_since(t0)) / n;
  });
}

double probe_fd() {
  grid::FdTable table(8192);
  return median_of([&table] {
    const int n = 200000;
    const auto t0 = WallClock::now();
    for (int i = 0; i < n; ++i) {
      if (table.try_allocate(20)) table.free(20);
    }
    return double(nanos_since(t0)) / n;
  });
}

// Median cost per operation and kernel events per operation.
struct OpCost {
  double ns = 0;
  double events = 0;
};

template <class F>
OpCost median_op(F batch) {
  std::vector<double> ns;
  std::vector<double> events;
  for (int b = 0; b < kBatches; ++b) {
    const OpCost c = batch();
    ns.push_back(c.ns);
    events.push_back(c.events);
  }
  return {median(std::move(ns)), median(std::move(events))};
}

// Per-event cost of eight processes that only sleep: the control the
// grid fixtures below are netted against.
double probe_control_event() {
  return median_of([] {
    sim::Kernel kernel(7);
    for (int i = 0; i < 8; ++i) {
      kernel.spawn("control", [](sim::Context& ctx) {
        while (true) ctx.sleep(msec(100));
      });
    }
    const auto t0 = WallClock::now();
    kernel.run_until(kEpoch + sec(1000));
    const double ns = double(nanos_since(t0));
    const double events = double(kernel.events_processed());
    kernel.shutdown();
    return ns / events;
  });
}

// Eight clients submitting back to back.  With `table_full` every
// descriptor is pinned first, so each submission is refused after its
// connect -- the path a collapsed schedd's clients spin on.
OpCost probe_submit(bool table_full) {
  return median_op([table_full] {
    sim::Kernel kernel(7);
    grid::Schedd schedd(kernel, grid::ScheddConfig{});
    if (table_full) {
      (void)schedd.fd_table().try_allocate(schedd.fd_table().capacity());
    }
    std::int64_t submits = 0;
    for (int i = 0; i < 8; ++i) {
      kernel.spawn("client", [&](sim::Context& ctx) {
        while (true) {
          (void)schedd.submit(ctx);
          ++submits;
        }
      });
    }
    const auto t0 = WallClock::now();
    kernel.run_until(kEpoch + sec(table_full ? 300 : 1500));
    const double ns = double(nanos_since(t0));
    const double events = double(kernel.events_processed());
    kernel.shutdown();
    return OpCost{ns / double(submits), events / double(submits)};
  });
}

OpCost probe_reshare(std::size_t flows) {
  return median_op([flows] {
    sim::Kernel kernel(7);
    sim::FluidResource link(kernel, 4.0 * 1024 * 1024);
    for (std::size_t i = 0; i < flows; ++i) {
      kernel.spawn("bulk", [&link](sim::Context& ctx) {
        (void)link.transfer(ctx, 1e18);  // outlives the fixture
      });
    }
    kernel.spawn("prober", [&link](sim::Context& ctx) {
      for (int i = 0; i < 2000; ++i) (void)link.transfer(ctx, 1024.0);
    });
    const auto t0 = WallClock::now();
    kernel.run_until(kEpoch + hours(1));
    const double ns = double(nanos_since(t0));
    const double events = double(kernel.events_processed());
    const double reshares = double(link.reshares());
    kernel.shutdown();
    return OpCost{ns / reshares, events / reshares};
  });
}

// A clock that never blocks: isolates run_try's retry and backoff path
// from the kernel.
class ManualClock final : public core::Clock {
 public:
  TimePoint now() override { return now_; }
  void sleep(Duration d) override { now_ += d; }
  Status with_deadline(TimePoint, const std::function<Status()>& fn) override {
    return fn();
  }

 private:
  TimePoint now_{};
};

double probe_backoff() {
  return median_of([] {
    const int attempts = 20000;
    ManualClock clock;
    Rng rng(7);
    const core::Discipline discipline{
        "aloha", core::TryOptions::times(attempts), nullptr};
    core::DisciplineMetrics metrics;
    const auto t0 = WallClock::now();
    (void)core::run_with_discipline(
        clock, rng, discipline,
        [](TimePoint) { return Status::unavailable("schedd busy"); },
        &metrics);
    return double(nanos_since(t0)) / attempts;
  });
}

double probe_parse() {
  return median_of([] {
    const int n = 200;
    const auto t0 = WallClock::now();
    for (int i = 0; i < n; ++i) {
      shell::ParseResult parsed = shell::parse_script(kPipelineScript);
      if (parsed.status.failed()) return 0.0;
    }
    return double(nanos_since(t0)) / 1000.0 / n;
  });
}

double probe_command() {
  const int commands = 500;
  std::string source;
  for (int i = 0; i < commands; ++i) source += "noop a b\n";
  const shell::ParseResult parsed = shell::parse_script(source);
  sim::Kernel kernel(7);
  shell::SimExecutor executor(kernel);
  executor.register_command(
      "noop", [](sim::Context&, const shell::CommandInvocation&) {
        return shell::CommandResult{Status::success(), "", ""};
      });
  std::vector<double> costs;
  kernel.spawn("probe", [&](sim::Context& ctx) {
    shell::SimExecutor::ContextBinding binding(executor, ctx);
    shell::Interpreter interpreter(executor);
    shell::Environment env;
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = WallClock::now();
      (void)interpreter.run(*parsed.script, env);
      costs.push_back(double(nanos_since(t0)) / commands);
    }
  });
  kernel.run();
  return median(std::move(costs));
}

struct IdleWindows {
  double per_window_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double scan_us = 0;
};

// An idle sharded world: one process per shard sleeping exactly one
// lookahead, so every window runs one event per shard and the coordinator
// (mail flush, horizon scan, dispatch, barrier) is nearly all the work.
IdleWindows probe_idle_windows(std::size_t threads) {
  sim::ShardedKernelOptions options;
  options.shards = 4;
  options.threads = threads;
  options.lookahead = msec(50);
  sim::ShardedKernel sk(7, options);
  for (std::size_t s = 0; s < sk.shard_count(); ++s) {
    sk.spawn(s, "idle", [](sim::Context& ctx) {
      while (true) ctx.sleep(msec(50));
    });
  }
  sk.run_until(kEpoch + sec(1));  // warm the workers and fibers

  IdleWindows out;
  std::uint64_t before = sk.windows_run();
  auto t0 = WallClock::now();
  sk.run_until(kEpoch + sec(61));
  out.per_window_us =
      seconds_since(t0) * 1e6 / double(sk.windows_run() - before);

  std::vector<double> per_slice;
  std::vector<double> scans;
  for (int i = 0; i < 100; ++i) {
    before = sk.windows_run();
    t0 = WallClock::now();
    sk.run_until(sk.now() + sec(1));
    per_slice.push_back(seconds_since(t0) * 1e6 /
                        double(sk.windows_run() - before));
    TimePoint horizon = TimePoint::max();
    const auto t1 = WallClock::now();
    for (std::size_t s = 0; s < sk.shard_count(); ++s) {
      horizon = std::min(horizon, sk.shard(s).next_live_event_time());
    }
    scans.push_back(seconds_since(t1) * 1e6);
    volatile std::int64_t sink = horizon.time_since_epoch().count();
    (void)sink;
  }
  out.p50_us = quantile(per_slice, 0.5);
  out.p99_us = quantile(per_slice, 0.99);
  out.scan_us = median(std::move(scans));
  sk.shutdown();
  return out;
}

void probe_obs(ProbeResults* out) {
  obs::TraceRecorder recorder("probe");
  obs::MetricsRegistry registry;
  TimedObserver timed;
  timed.wrap(&recorder);
  timed.wrap(&registry);
  obs::ObserverSet observers;
  observers.add(&timed);
  static const obs::SiteId kSite = obs::intern_site("probe");
  for (int i = 0; i < 20000; ++i) {
    obs::Span span;
    span.kind = obs::SpanKind::kCommand;
    span.name = "fetch";
    span.detail = "fetch xxx input.dat";
    span.start = kEpoch + usec(10 * i);
    observers.begin_span(span);
    span.end = span.start + usec(5);
    observers.end_span(span);
    if (i % 2 == 0) {
      obs::ObsEvent event;
      event.kind = obs::ObsEvent::Kind::kBackoff;
      event.time = span.end;
      event.site = kSite;
      event.value = 1.5;
      observers.on_event(event);
    }
  }
  out->obs_ns_per_call = double(timed.total_ns()) / double(timed.calls());
  const auto t0 = WallClock::now();
  const std::string json = recorder.to_json();
  out->obs_export_s = seconds_since(t0);
}

}  // namespace

ProbeResults run_probes(std::size_t threads, std::size_t flows) {
  ProbeResults p;
  p.switch_ns = probe_switch();
  p.sleep_event_ns = probe_sleep_event();
  p.spawn_ns = probe_spawn();
  p.fd_ns = probe_fd();
  const double control_ns = probe_control_event();
  auto net = [control_ns](const OpCost& c) {
    return c.ns - c.events * control_ns;
  };
  p.submit_ns = net(probe_submit(false));
  p.refused_submit_ns = net(probe_submit(true));
  p.reshare_ns = net(probe_reshare(std::max<std::size_t>(flows, 1)));
  p.backoff_ns = probe_backoff();
  p.parse_us = probe_parse();
  p.cmd_ns = probe_command();
  const IdleWindows idle = probe_idle_windows(threads);
  p.empty_window_us = idle.per_window_us;
  p.idle_window_us_p50 = idle.p50_us;
  p.idle_window_us_p99 = idle.p99_us;
  p.idle_scan_us = idle.scan_us;
  p.empty_window_1t_us =
      threads == 1 ? idle.per_window_us : probe_idle_windows(1).per_window_us;
  probe_obs(&p);
  return p;
}

}  // namespace perfbench
