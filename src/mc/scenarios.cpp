#include "mc/scenarios.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "grid/fd_table.hpp"
#include "grid/reservation.hpp"
#include "grid/schedd.hpp"
#include "grid/substrate.hpp"
#include "shell/session.hpp"
#include "shell/sim_executor.hpp"
#include "sim/resource.hpp"
#include "sim/shard.hpp"
#include "sim/store.hpp"

namespace ethergrid::mc {

namespace {

// ------------------------------------------------------------ forall-abort

// One branch of three fails after a same-instant sleep; the interpreter's
// sibling-abort (kill-on-failure) storm must leave no process behind and
// keep the wakeup accounting exact through the kills.  The sleeps are
// deliberately identical so every branch wakes at the same instant --
// maximum scheduling ambiguity for the explorer to enumerate.
constexpr const char* kForallAbortScript = R"(
forall b in 1 2 3
  branch ${b}
end
)";

class ForallAbortWorld final : public ScenarioWorld {
 public:
  explicit ForallAbortWorld(sim::Kernel& kernel)
      : executor(kernel), session(executor) {}

  shell::SimExecutor executor;
  shell::Session session;
  Status result = Status::success();
  bool script_done = false;
};

class ForallAbortScenario final : public Scenario {
 public:
  std::string name() const override { return "forall-abort"; }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy*,
                                       InvariantSet& invariants) override {
    auto world = std::make_unique<ForallAbortWorld>(kernel);
    ForallAbortWorld* w = world.get();
    w->executor.register_command(
        "branch",
        [](sim::Context& ctx,
           const shell::CommandInvocation& inv) -> shell::CommandResult {
          ctx.sleep(msec(1));
          if (inv.argv.size() > 1 && inv.argv[1] == "2") {
            return {Status::failure("branch 2 fails"), "", ""};
          }
          return {Status::success(), "", ""};
        });
    kernel.spawn("script", [w](sim::Context& ctx) {
      shell::SimExecutor::ContextBinding binding(w->executor, ctx);
      w->result = w->session.run_source(kForallAbortScript);
      w->script_done = true;
    });
    invariants.add("forall-reports-failure",
                   [w](const CheckContext& ctx) -> Status {
                     if (!ctx.at_end) return Status::success();
                     if (!w->script_done) {
                       return Status::failure("script never completed");
                     }
                     if (w->result.ok()) {
                       return Status::failure(
                           "forall with a failing branch reported success");
                     }
                     return Status::success();
                   });
    return world;
  }
};

// ---------------------------------------------------- try-timeout-resource

// Two clients race a try/timeout around a capacity-1 Resource, fd-table
// entries, and a bounded Store slot, with a probabilistic stall fault that
// pushes some paths past the deadline.  Whatever the interleaving and
// whichever side of the deadline each wait lands on, every unwind path must
// give back everything it held.
constexpr const char* kTryTimeoutScript = R"(
try for 60 milliseconds
  grab
end
)";

class TryTimeoutWorld final : public ScenarioWorld {
 public:
  explicit TryTimeoutWorld(sim::Kernel& kernel, Rng fault_rng)
      : resource(kernel, 1),
        fds(8),
        store(kernel, 2),
        faults(sim::FaultPlan().add("mc.grab",
                                    sim::FaultPlan::stall(0.5, msec(40))),
               fault_rng),
        executor(kernel) {}

  sim::Resource resource;
  grid::FdTable fds;
  sim::Store<int> store;
  core::FaultInjector faults;
  shell::SimExecutor executor;
  std::vector<std::unique_ptr<shell::Session>> sessions;
};

class TryTimeoutScenario final : public Scenario {
 public:
  std::string name() const override { return "try-timeout-resource"; }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel,
                                       Strategy* strategy,
                                       InvariantSet& invariants) override {
    auto world = std::make_unique<TryTimeoutWorld>(kernel, kernel.rng());
    TryTimeoutWorld* w = world.get();
    w->faults.set_strategy(strategy);
    w->executor.register_command(
        "grab",
        [w](sim::Context& ctx,
            const shell::CommandInvocation&) -> shell::CommandResult {
          // Everything acquired here must ride RAII (or the guard below):
          // the enclosing try's deadline may unwind this frame at any wait.
          sim::ResourceLease lease(ctx, w->resource);
          grid::FdLease fd(w->fds, 2);
          const core::FaultDecision fault =
              w->faults.decide("mc.grab", ctx.now());
          if (fault.action == core::FaultDecision::Action::kStall) {
            ctx.sleep(fault.stall);
          }
          w->store.put(ctx, 1);
          // Pop our slot back out even if the sleep below unwinds.
          struct StoreSlotGuard {
            sim::Store<int>* store;
            ~StoreSlotGuard() {
              int value = 0;
              store->try_get(&value);
            }
          } guard{&w->store};
          ctx.sleep(msec(30));
          return {Status::success(), "", ""};
        });
    shell::SessionOptions session_options;
    session_options.backoff.kind = core::BackoffPolicy::Kind::kFixed;
    session_options.backoff.base = msec(10);
    session_options.backoff.jitter_min = 1.0;
    session_options.backoff.jitter_max = 1.0;
    for (int i = 0; i < 2; ++i) {
      w->sessions.push_back(
          std::make_unique<shell::Session>(w->executor, session_options));
      shell::Session* session = w->sessions.back().get();
      kernel.spawn("client" + std::to_string(i), [w, session](
                                                    sim::Context& ctx) {
        shell::SimExecutor::ContextBinding binding(w->executor, ctx);
        (void)session->run_source(kTryTimeoutScript);
      });
    }
    invariants.add(
        "try-timeout-releases-resources",
        [w](const CheckContext& ctx) -> Status {
          if (!ctx.at_end) return Status::success();
          if (w->resource.available() != w->resource.capacity()) {
            return Status::failure(
                "resource units leaked: available " +
                std::to_string(w->resource.available()) + " of " +
                std::to_string(w->resource.capacity()));
          }
          if (w->fds.in_use() != 0) {
            return Status::failure("fd-table entries leaked: in_use " +
                                   std::to_string(w->fds.in_use()));
          }
          if (w->store.size() != 0) {
            return Status::failure("store slots leaked: size " +
                                   std::to_string(w->store.size()));
          }
          return Status::success();
        });
    return world;
  }
};

// ---------------------------------------------------- carrier-sense-crash

// The paper's Ethernet submitter (carrier-sense on the fd table, then
// submit) against a Schedd that crashes partway through and probabilistically
// rejects submissions.  The discipline's whole claim is that it rides out
// the crash: no interleaving or fault branch may deadlock the retry loop or
// leak a process once the try budget expires.
constexpr const char* kCarrierSenseScript = R"(
try for 3 seconds
  read-file-nr -> n
  if ${n} .lt. 20
    failure
  else
    condor_submit
  end
end
)";

class CarrierSenseWorld final : public ScenarioWorld {
 public:
  CarrierSenseWorld(sim::Kernel& kernel, const grid::ScheddConfig& config,
                    Rng fault_rng)
      : schedd(kernel, config),
        faults(sim::FaultPlan()
                   .add("schedd.submit", sim::FaultPlan::error(0.25))
                   .add("schedd.submit",
                        sim::FaultPlan::crash_at(kEpoch + msec(50))),
               fault_rng),
        executor(kernel) {}

  grid::Schedd schedd;
  core::FaultInjector faults;
  shell::SimExecutor executor;
  std::vector<std::unique_ptr<shell::Session>> sessions;
};

class CarrierSenseScenario final : public Scenario {
 public:
  std::string name() const override { return "carrier-sense-crash"; }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel,
                                       Strategy* strategy,
                                       InvariantSet& invariants) override {
    grid::ScheddConfig config;
    config.fd_capacity = 60;
    config.fds_per_connection = 20;
    config.fds_per_connection_jitter = 0;
    config.fds_per_service = 4;
    config.fds_per_transfer = 0;
    config.service_concurrency = 1;
    config.service_min = msec(20);
    config.service_max = msec(20);
    config.slowdown_per_connection = 0;
    config.connect_time = msec(10);
    config.restart_delay = msec(300);
    auto world =
        std::make_unique<CarrierSenseWorld>(kernel, config, kernel.rng());
    CarrierSenseWorld* w = world.get();
    w->faults.set_strategy(strategy);
    w->schedd.set_fault_injector(&w->faults);
    w->executor.register_command(
        "read-file-nr",
        [w](sim::Context& ctx,
            const shell::CommandInvocation&) -> shell::CommandResult {
          ctx.sleep(msec(1));
          return {Status::success(),
                  std::to_string(w->schedd.fd_table().available()), ""};
        });
    w->executor.register_command(
        "condor_submit",
        [w](sim::Context& ctx,
            const shell::CommandInvocation&) -> shell::CommandResult {
          return {w->schedd.submit(ctx), "", ""};
        });
    shell::SessionOptions session_options;
    session_options.backoff.kind = core::BackoffPolicy::Kind::kFixed;
    session_options.backoff.base = msec(100);
    session_options.backoff.jitter_min = 1.0;
    session_options.backoff.jitter_max = 1.0;
    for (int i = 0; i < 2; ++i) {
      w->sessions.push_back(
          std::make_unique<shell::Session>(w->executor, session_options));
      shell::Session* session = w->sessions.back().get();
      kernel.spawn("submitter" + std::to_string(i), [w, session](
                                                        sim::Context& ctx) {
        shell::SimExecutor::ContextBinding binding(w->executor, ctx);
        (void)session->run_source(kCarrierSenseScript);
      });
    }
    (void)invariants;  // defaults (no leaks / accounting) are the contract
    return world;
  }
};

// ---------------------------------------------------- wake-token-selftest

// Re-arms the pre-PR-6 accounting bug (kill without invalidate) through the
// KernelOptions debug knob.  The drift is only observable in the window
// between the kill and the delivery of the victim's kill-wakeup -- exactly
// the kind of ordering-dependent bug seed-sampled chaos can miss and the
// explorer cannot: some interleaving delivers another process's wakeup
// inside the window, and the per-transition queue-accounting invariant
// fires with a replayable trace.
class WakeTokenWorld final : public ScenarioWorld {
 public:
  sim::ProcessHandle sleeper;
};

class WakeTokenScenario final : public Scenario {
 public:
  std::string name() const override { return "wake-token-selftest"; }

  sim::KernelOptions kernel_options(sim::KernelOptions base) const override {
    base.debug_kill_skips_invalidate = true;
    return base;
  }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy*,
                                       InvariantSet&) override {
    auto world = std::make_unique<WakeTokenWorld>();
    WakeTokenWorld* w = world.get();
    w->sleeper = kernel.spawn("sleeper", [](sim::Context& ctx) {
      ctx.sleep(sec(1));  // the pending far-future wakeup the kill strands
    });
    kernel.spawn("ticker", [](sim::Context& ctx) {
      for (int i = 0; i < 3; ++i) ctx.yield();
    });
    kernel.spawn("killer", [w](sim::Context& ctx) {
      ctx.yield();
      ctx.kill(w->sleeper, "selftest kill");
    });
    return world;
  }
};

// ---------------------------------------------------- cross-shard-window

// Forwards to the explorer's strategy, noting which shard's drain made the
// call.  The per-transition accounting check then verifies that shard
// alone: verifying another shard means taking its mutex under this
// drain's full hold, which orders the shard mutexes both ways across
// windows (a lock-order inversion TSan reports).  Nothing else is lost:
// an idle shard cannot change mid-window (post() only fills the mailbox),
// drift is persistent, and the end-of-run check covers every shard.
class ShardStrategy final : public Strategy {
 public:
  ShardStrategy(Strategy* inner, std::size_t* active, std::size_t shard)
      : inner_(inner), active_(active), shard_(shard) {}

  std::size_t choose(const ChoicePoint& cp) override {
    return inner_->choose(cp);
  }

  bool on_transition() override {
    *active_ = shard_;
    return inner_->on_transition();
  }

 private:
  Strategy* inner_;
  std::size_t* active_;
  std::size_t shard_;
};

// A two-shard ShardedKernel under the explorer: a client on shard 0
// submits to a schedd on shard 1 through the cross-shard mailbox (request
// and reply both cross a conservative window boundary), while a killer on
// shard 0 kills the client at the exact instant the reply delivery wakes.
// The explorer enumerates both the schedule ambiguity at that boundary
// (kill-before-reply / reply-before-kill) and the schedd's probabilistic
// fault branch.  Whatever the interleaving: both shard kernels must drain
// with exact accounting, the reply must run at most once, and a client
// that completed must have consumed exactly one reply.
class CrossShardWorld final : public ScenarioWorld {
 public:
  // Shared by the client, the request payload, and the reply payload, so
  // it survives whichever dies first (client killed mid-wait, message
  // dropped at shutdown).
  struct Rpc {
    explicit Rpc(sim::Kernel& home) : reply(home) {}
    sim::Event reply;
    Status result = Status::unavailable("rpc dropped");
  };

  CrossShardWorld(std::uint64_t seed, const sim::ShardedKernelOptions& opts,
                  const grid::ScheddConfig& config)
      : sk(seed, opts),
        schedd(sk.shard(1), config),
        faults(sim::FaultPlan().add(config.fault_site,
                                    sim::FaultPlan::error(0.5)),
               sk.shard(1).rng().stream("faults")) {}

  ~CrossShardWorld() override {
    // Kill the shard processes (which reference schedd/faults, declared
    // after sk) before the members destruct.  Per-shard shutdown also
    // detaches any installed strategy.
    sk.shutdown();
  }

  sim::ShardedKernel sk;
  grid::Schedd schedd;        // shard 1
  core::FaultInjector faults;
  sim::ProcessHandle client;  // shard 0
  std::vector<std::unique_ptr<ShardStrategy>> shard_strategies;
  std::size_t active_shard = 0;  // whose drain made the last strategy call
  bool client_done = false;
  Status rpc_result = Status::success();
  int replies = 0;
};

class CrossShardScenario final : public Scenario {
 public:
  std::string name() const override { return "cross-shard-window"; }

  sim::KernelOptions kernel_options(sim::KernelOptions base) const override {
    // Stash the explorer-level options (queue, switch): run_one calls this
    // before build(), and the shard kernels below must execute on the same
    // configuration as the (empty) explorer kernel.
    shard_kernel_ = base;
    return base;
  }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy* strategy,
                                       InvariantSet& invariants) override {
    (void)kernel;  // stays empty; drive() runs the sharded world instead
    sim::ShardedKernelOptions opts;
    opts.shards = 2;
    opts.threads = 1;  // DFS prefix replay must stay on the calling thread
    opts.lookahead = msec(10);
    opts.kernel = shard_kernel_;
    // Deterministic single-slot schedd: the only RNG-free ambiguity left
    // is the strategy's (schedule choices + the fault rule).
    grid::ScheddConfig config;
    config.fd_capacity = 60;
    config.fds_per_connection = 20;
    config.fds_per_connection_jitter = 0;
    config.fds_per_service = 4;
    config.fds_per_transfer = 0;
    config.service_concurrency = 1;
    config.service_min = msec(20);
    config.service_max = msec(20);
    config.slowdown_per_connection = 0;
    config.connect_time = msec(10);
    config.restart_delay = msec(300);
    auto world = std::make_unique<CrossShardWorld>(1, opts, config);
    CrossShardWorld* w = world.get();
    w->faults.set_strategy(strategy);
    w->schedd.set_fault_injector(&w->faults);
    for (std::size_t s = 0; s < w->sk.shard_count(); ++s) {
      w->sk.shard(s).logger().set_threshold(LogLevel::kOff);
      w->shard_strategies.push_back(
          std::make_unique<ShardStrategy>(strategy, &w->active_shard, s));
      w->sk.shard(s).set_strategy(w->shard_strategies.back().get());
    }
    sim::ShardedKernel* k = &w->sk;
    grid::Schedd* schedd = &w->schedd;
    // Timeline (virtual, lookahead 10ms): request posted at 0 delivers at
    // 10ms; connect 10ms + service 20ms finish the submit at 40ms; the
    // reply delivers at 50ms -- the same instant the killer fires, so the
    // client's fate rides on a window-boundary schedule choice.
    w->client = k->spawn(0, "client", [w, k, schedd](sim::Context& ctx) {
      auto rpc = std::make_shared<CrossShardWorld::Rpc>(k->shard(0));
      k->post(/*src_shard=*/0, /*src_site=*/0, /*dst_shard=*/1, msec(10),
              "rpc:submit", [w, k, schedd, rpc](sim::Context& rctx) {
                const Status result = schedd->submit(rctx);
                k->post(/*src_shard=*/1, /*src_site=*/1, /*dst_shard=*/0,
                        msec(10), "rpc:reply",
                        [w, rpc, result](sim::Context&) {
                          ++w->replies;
                          rpc->result = result;
                          rpc->reply.set();
                        });
              });
      ctx.wait(rpc->reply);
      w->rpc_result = rpc->result;
      w->client_done = true;
    });
    k->spawn(0, "killer", [w](sim::Context& ctx) {
      ctx.sleep(msec(50));
      ctx.kill(w->client, "window-boundary kill");
    });
    invariants.add(
        "shard-queue-accounting",
        [w](const CheckContext& ctx) -> Status {
          for (std::size_t s = 0; s < w->sk.shard_count(); ++s) {
            if (!ctx.at_end && s != w->active_shard) continue;
            const Status status = w->sk.shard(s).verify_queue_accounting();
            if (status.failed()) return status;
          }
          return Status::success();
        },
        /*every_transition=*/true);
    invariants.add("reply-runs-at-most-once",
                   [w](const CheckContext&) -> Status {
                     if (w->replies > 1) {
                       return Status::failure(
                           "cross-shard reply delivered " +
                           std::to_string(w->replies) + " times");
                     }
                     return Status::success();
                   },
                   /*every_transition=*/true);
    invariants.add("cross-shard-drains", [w](const CheckContext& ctx) -> Status {
      if (!ctx.at_end) return Status::success();
      if (w->sk.live_process_count() != 0) {
        return Status::failure(
            std::to_string(w->sk.live_process_count()) +
            " process(es) still live across the shards after the run");
      }
      if (w->client_done && w->replies != 1) {
        return Status::failure("client completed without consuming a reply");
      }
      return Status::success();
    });
    return world;
  }

  void drive(sim::Kernel& kernel, ScenarioWorld& world) override {
    (void)kernel;
    static_cast<CrossShardWorld&>(world).sk.run();
  }

 private:
  mutable sim::KernelOptions shard_kernel_;
};

// ------------------------------------------------ stale-front-window

// Forwards to the explorer's strategy, recording each delivered wakeup as
// (window index, virtual time) -- the window schedule as it happened.
class WindowLog final : public Strategy {
 public:
  struct Delivery {
    std::uint64_t window;
    TimePoint time;
  };

  WindowLog(Strategy* inner, const sim::ShardedKernel* sk, std::size_t shard,
            std::vector<Delivery>* log)
      : inner_(inner), sk_(sk), shard_(shard), log_(log) {}

  std::size_t choose(const ChoicePoint& cp) override {
    return inner_->choose(cp);
  }

  bool on_transition() override {
    // windows_run() counts finished windows, so it indexes the running one.
    log_->push_back({sk_->windows_run(), sk_->shard(shard_).now()});
    return inner_->on_transition();
  }

 private:
  Strategy* inner_;
  const sim::ShardedKernel* sk_;
  std::size_t shard_;
  std::vector<Delivery>* log_;
};

// Two shards, lookahead 10ms.  On shard 0 a killer and its victim both
// wake at 9.999ms, the last instant of the first window; on shard 1 a
// worker sleeps until 20ms, one lookahead past the boundary.  When the
// victim runs first it re-arms for 10ms -- the first instant past the
// boundary -- and the kill then leaves that entry stale at the front of
// shard 0's queue.  The horizon scan must skip it: the next window opens
// at 20ms, not at 10ms, whichever order the explorer picks.
class StaleFrontWorld final : public ScenarioWorld {
 public:
  StaleFrontWorld(std::uint64_t seed, const sim::ShardedKernelOptions& opts)
      : sk(seed, opts) {}
  ~StaleFrontWorld() override { sk.shutdown(); }

  sim::ShardedKernel sk;
  std::vector<std::unique_ptr<WindowLog>> logs;
  std::vector<WindowLog::Delivery> deliveries;
  sim::ProcessHandle victim;  // shard 0
  bool victim_done = false;
  bool worker_done = false;
};

class StaleFrontScenario final : public Scenario {
 public:
  std::string name() const override { return "stale-front-window"; }

  sim::KernelOptions kernel_options(sim::KernelOptions base) const override {
    shard_kernel_ = base;  // as in cross-shard-window
    return base;
  }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy* strategy,
                                       InvariantSet& invariants) override {
    (void)kernel;  // stays empty; drive() runs the sharded world instead
    sim::ShardedKernelOptions opts;
    opts.shards = 2;
    opts.threads = 1;  // DFS prefix replay must stay on the calling thread
    opts.lookahead = kLookahead;
    opts.kernel = shard_kernel_;
    auto world = std::make_unique<StaleFrontWorld>(1, opts);
    StaleFrontWorld* w = world.get();
    for (std::size_t s = 0; s < w->sk.shard_count(); ++s) {
      w->logs.push_back(std::make_unique<WindowLog>(strategy, &w->sk, s,
                                                    &w->deliveries));
      w->sk.shard(s).set_strategy(w->logs.back().get());
    }
    const TimePoint boundary = kEpoch + kLookahead;  // second window's T
    // Spawned first, so the default same-instant order (the clean-replay
    // fixture) is victim-then-killer: the order that leaves the stale
    // entry behind.
    w->victim = w->sk.spawn(0, "victim", [w, boundary](sim::Context& ctx) {
      ctx.sleep(boundary - usec(1) - ctx.now());
      ctx.sleep(usec(1));
      w->victim_done = true;
    });
    w->sk.spawn(0, "killer", [w, boundary](sim::Context& ctx) {
      ctx.sleep(boundary - usec(1) - ctx.now());
      ctx.kill(w->victim, "stale-front kill");
    });
    w->sk.spawn(1, "worker", [w, boundary](sim::Context& ctx) {
      ctx.sleep(boundary + kLookahead - ctx.now());
      w->worker_done = true;
    });
    invariants.add(
        "window-schedule-matches-full-scan",
        [w](const CheckContext& ctx) -> Status {
          if (!ctx.at_end) return Status::success();
          return check_schedule(*w);
        });
    invariants.add(
        "stale-front-drains", [w](const CheckContext& ctx) -> Status {
          if (!ctx.at_end) return Status::success();
          if (w->sk.live_process_count() != 0) {
            return Status::failure(
                std::to_string(w->sk.live_process_count()) +
                " process(es) still live across the shards after the run");
          }
          if (w->victim_done || !w->worker_done) {
            return Status::failure(
                "the victim outlived its kill or the worker never woke");
          }
          for (std::size_t s = 0; s < w->sk.shard_count(); ++s) {
            const Status status = w->sk.shard(s).verify_queue_accounting();
            if (status.failed()) return status;
          }
          return Status::success();
        });
    return world;
  }

  void drive(sim::Kernel& kernel, ScenarioWorld& world) override {
    (void)kernel;
    static_cast<StaleFrontWorld&>(world).sk.run();
  }

 private:
  static constexpr Duration kLookahead = msec(10);

  // A full scan over live entries opens each window at the earliest one,
  // and every such entry (or the wake a same-instant kill replaces it
  // with) is delivered.  With no cross-shard mail, the schedule it implies
  // is therefore the greedy cover of the delivered instants: open at the
  // earliest not yet covered, cover lookahead of virtual time, repeat.
  // The run must have opened exactly those windows, in that order, each
  // delivering at its opening instant first.
  static Status check_schedule(const StaleFrontWorld& w) {
    std::vector<TimePoint> times;
    for (const WindowLog::Delivery& d : w.deliveries) times.push_back(d.time);
    std::sort(times.begin(), times.end());
    std::vector<TimePoint> want;
    for (const TimePoint t : times) {
      if (want.empty() || t > want.back() + kLookahead - usec(1)) {
        want.push_back(t);
      }
    }
    std::vector<TimePoint> got(w.sk.windows_run(), TimePoint::max());
    for (const WindowLog::Delivery& d : w.deliveries) {
      if (d.window >= got.size()) {
        return Status::failure("delivery outside any window");
      }
      got[d.window] = std::min(got[d.window], d.time);
    }
    if (got == want) return Status::success();
    auto describe = [](const std::vector<TimePoint>& opens) {
      std::string out;
      for (const TimePoint t : opens) {
        if (!out.empty()) out += " ";
        out += t == TimePoint::max()
                   ? std::string("(empty)")
                   : std::to_string(t.time_since_epoch().count()) + "us";
      }
      return out;
    };
    return Status::failure("windows opened at [" + describe(got) +
                           "], a full scan opens them at [" +
                           describe(want) + "]");
  }

  mutable sim::KernelOptions shard_kernel_;
};

// ------------------------------------------- reservation-grant-kill

// Two bulk clients negotiate malleable grants from a ReservationBook whose
// capacity (500 B/s) fits only one at a time, then stream over a fluid
// link; a killer fires at t=2s -- the exact instant the second grant
// starts AND the first grant's stream completes, so the victim dies either
// at grant delivery (unwinding the sleep-to-start) or at stream completion
// (aborting the fluid flow), depending on the schedule the explorer picks.
// A probabilistic stall fault shifts the flows half a second to widen the
// race.  Whatever the interleaving: GrantLease must return every booking
// (no active grants at the end), the fluid link must drain (no orphaned
// flows), the book must never oversubscribe mid-flight, and the requester
// the killer never targets must complete.
class ReservationKillWorld final : public ScenarioWorld {
 public:
  ReservationKillWorld(sim::Kernel& kernel, Rng fault_rng)
      : link(kernel, link_config()),
        book(book_config()),
        faults(sim::FaultPlan().add("link.write",
                                    sim::FaultPlan::stall(0.5, msec(500))),
               fault_rng) {
    link.set_fault_injector(&faults);
  }

  static grid::SubstrateConfig link_config() {
    grid::SubstrateConfig config;
    config.site = "link";
    config.bytes_per_second = 1000.0;
    config.model = grid::CapacityModel::kFluid;
    return config;
  }

  static grid::ReservationBookConfig book_config() {
    grid::ReservationBookConfig config;
    config.reservable_bps = 500.0;
    config.site = "link.book";
    return config;
  }

  grid::Substrate link;
  grid::ReservationBook book;
  core::FaultInjector faults;
  sim::ProcessHandle victim;
  int completed = 0;
};

class ReservationKillScenario final : public Scenario {
 public:
  std::string name() const override { return "reservation-grant-kill"; }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy* strategy,
                                       InvariantSet& invariants) override {
    auto world = std::make_unique<ReservationKillWorld>(kernel, kernel.rng());
    ReservationKillWorld* w = world.get();
    w->faults.set_strategy(strategy);
    auto requester = [w](sim::Context& ctx) {
      // 1000 bytes at exactly 500 B/s: each grant is a 2-second window,
      // and the book fits one window at a time.
      const grid::Grant grant = w->book.request(ctx, 1000.0, 500.0, 500.0);
      if (!grant.ok()) return;
      grid::GrantLease lease(w->book, grant.id);
      if (ctx.now() < grant.start) ctx.sleep(grant.start - ctx.now());
      const core::FaultDecision fault = w->link.decide(ctx, "write");
      if (fault.action == core::FaultDecision::Action::kStall) {
        ctx.sleep(fault.stall);
      }
      sim::FluidFlowOptions flow;
      flow.weight = grid::kReservedWeight;
      flow.rate_cap = grant.rate;
      if (w->link.stream(ctx, 1000.0, flow).ok()) ++w->completed;
    };
    kernel.spawn("requester0", requester);
    w->victim = kernel.spawn("requester1", requester);
    kernel.spawn("killer", [w](sim::Context& ctx) {
      ctx.sleep(sec(2));  // grant-delivery instant of the queued grant
      ctx.kill(w->victim, "grant-delivery kill");
    });
    invariants.add(
        "book-never-oversubscribes",
        [w](const CheckContext& ctx) -> Status {
          const double reserved = w->book.reserved_at(ctx.kernel.now());
          if (reserved > w->book.reservable_bps() + 1e-9) {
            return Status::failure("book oversubscribed: " +
                                   std::to_string(reserved) + " reserved of " +
                                   std::to_string(w->book.reservable_bps()));
          }
          return Status::success();
        },
        /*every_transition=*/true);
    invariants.add(
        "reservation-releases-grants",
        [w](const CheckContext& ctx) -> Status {
          if (!ctx.at_end) return Status::success();
          if (w->book.active_grants() != 0) {
            return Status::failure(
                std::to_string(w->book.active_grants()) +
                " grant(s) still booked after the run (GrantLease leak)");
          }
          if (w->link.fluid() != nullptr &&
              w->link.fluid()->active_flows() != 0) {
            return Status::failure(
                std::to_string(w->link.fluid()->active_flows()) +
                " fluid flow(s) still active after the run");
          }
          if (w->completed < 1) {
            return Status::failure(
                "the requester the killer never targets did not complete");
          }
          return Status::success();
        });
    return world;
  }
};

// ---------------------------------------------------- kill-vs-first-dispatch

// PR 10's lazy materialization: a fiber (stack + context) exists only from
// a process's FIRST dispatch, and a kill landing before that dispatch must
// finish the process through the no-fiber path.  Victim, killer, and a
// ticker all become runnable at the same instant, so the explorer
// enumerates every arrival order of that race: kill-before-first-dispatch
// (the victim dies having never materialized), kill-during-run (unwinds at
// the yield), and kill-after-finish (a no-op).  Whatever the order: the
// victim finishes with the result its fate implies, the accounting stays
// exact (default invariants), and a victim that never started must never
// have owned a stack.
class KillFirstDispatchWorld final : public ScenarioWorld {
 public:
  sim::ProcessHandle victim;
  bool body_started = false;
  bool body_done = false;
};

class KillFirstDispatchScenario final : public Scenario {
 public:
  std::string name() const override { return "kill-vs-first-dispatch"; }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy*,
                                       InvariantSet& invariants) override {
    auto world = std::make_unique<KillFirstDispatchWorld>();
    KillFirstDispatchWorld* w = world.get();
    // Spawned before the victim so the DEFAULT same-instant order (spawn
    // order) is kill-before-first-dispatch -- the committed clean-replay
    // fixtures, which record no decisions, then pin exactly that path.
    // w->victim is assigned below, before any body runs.
    kernel.spawn("killer", [w](sim::Context& ctx) {
      ctx.kill(w->victim, "first-dispatch race");
    });
    w->victim = kernel.spawn("victim", [w](sim::Context& ctx) {
      w->body_started = true;
      ctx.yield();  // a wait the kill can unwind mid-run
      w->body_done = true;
    });
    // Widens the same-instant wakeup set so the kill can land between any
    // pair of the victim's transitions, not just before/after all of them.
    kernel.spawn("ticker", [](sim::Context& ctx) { ctx.yield(); });
    invariants.add(
        "victim-fate-matches-body",
        [w](const CheckContext& ctx) -> Status {
          if (!ctx.at_end) return Status::success();
          if (!w->victim->finished()) {
            return Status::failure("victim never finished");
          }
          const StatusCode code = w->victim->result().code();
          if (!w->body_started && code != StatusCode::kKilled) {
            return Status::failure(
                "victim killed before first dispatch but result is not "
                "kKilled");
          }
          if (w->body_done && code != StatusCode::kOk) {
            return Status::failure(
                "victim body ran to completion but result is not ok");
          }
          if (w->body_started && !w->body_done &&
              code != StatusCode::kKilled) {
            return Status::failure(
                "victim unwound mid-run but result is not kKilled");
          }
          return Status::success();
        });
    invariants.add(
        "unstarted-victim-owns-no-stack",
        [w](const CheckContext& ctx) -> Status {
          if (!ctx.at_end) return Status::success();
          // killer + ticker can pool at most two stacks between them; a
          // third can only exist if the victim materialized, which a
          // never-dispatched victim must not.
          if (!w->body_started && ctx.kernel.pooled_stack_count() > 2) {
            return Status::failure(
                "victim never ran its body yet a fiber stack was "
                "materialized for it (lazy materialization regression)");
          }
          return Status::success();
        });
    return world;
  }
};

// ------------------------------------------------------------- script

class ScriptWorld final : public ScenarioWorld {
 public:
  explicit ScriptWorld(sim::Kernel& kernel)
      : executor(kernel), session(executor) {}

  shell::SimExecutor executor;
  shell::Session session;
  Status result = Status::success();
};

class ScriptScenario final : public Scenario {
 public:
  ScriptScenario(std::string name, std::string source)
      : name_(std::move(name)), source_(std::move(source)) {}

  std::string name() const override { return name_; }

  std::unique_ptr<ScenarioWorld> build(sim::Kernel& kernel, Strategy*,
                                       InvariantSet&) override {
    auto world = std::make_unique<ScriptWorld>(kernel);
    ScriptWorld* w = world.get();
    const std::string& source = source_;
    kernel.spawn("script", [w, source](sim::Context& ctx) {
      shell::SimExecutor::ContextBinding binding(w->executor, ctx);
      w->result = w->session.run_source(source);
    });
    return world;
  }

 private:
  std::string name_;
  std::string source_;
};

}  // namespace

std::vector<std::string> scenario_names() {
  return {"forall-abort", "try-timeout-resource", "carrier-sense-crash",
          "wake-token-selftest", "cross-shard-window",
          "stale-front-window", "reservation-grant-kill",
          "kill-vs-first-dispatch"};
}

std::unique_ptr<Scenario> make_scenario(const std::string& name) {
  if (name == "forall-abort") return std::make_unique<ForallAbortScenario>();
  if (name == "try-timeout-resource") {
    return std::make_unique<TryTimeoutScenario>();
  }
  if (name == "carrier-sense-crash") {
    return std::make_unique<CarrierSenseScenario>();
  }
  if (name == "wake-token-selftest") {
    return std::make_unique<WakeTokenScenario>();
  }
  if (name == "cross-shard-window") {
    return std::make_unique<CrossShardScenario>();
  }
  if (name == "stale-front-window") {
    return std::make_unique<StaleFrontScenario>();
  }
  if (name == "reservation-grant-kill") {
    return std::make_unique<ReservationKillScenario>();
  }
  if (name == "kill-vs-first-dispatch") {
    return std::make_unique<KillFirstDispatchScenario>();
  }
  return nullptr;
}

std::unique_ptr<Scenario> make_script_scenario(std::string name,
                                               std::string source) {
  return std::make_unique<ScriptScenario>(std::move(name), std::move(source));
}

}  // namespace ethergrid::mc
