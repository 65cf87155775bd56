// Schedd: the Condor job scheduler agent of scenario 1, simulated.
//
// "The schedd is an agent that works on behalf of a grid user, keeping jobs
//  in a persistent queue while finding sites where they may run."
//
// The model captures the dynamics the paper observed:
//   * each open client connection pins fds_per_connection descriptors in the
//     host's FdTable for the life of the submission (connect -> service
//     complete / aborted);
//   * the schedd itself needs fds_per_service descriptors to service a job;
//     if it cannot allocate them it CRASHES -- dropping every in-flight
//     submission at once (the "broadcast jam") -- and restarts after
//     restart_delay;
//   * service is FIFO with limited concurrency, and per-job service time
//     stretches with the number of open connections (CPU/memory contention
//     on the schedd host: the reason even well-behaved clients see reduced
//     peak throughput under load).
#pragma once

#include <cstdint>
#include <memory>

#include <deque>

#include "core/fault.hpp"
#include "grid/fd_table.hpp"
#include "obs/observer.hpp"
#include "grid/submit_file.hpp"
#include "sim/kernel.hpp"
#include "util/scope_guard.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace ethergrid::grid {

// FIFO service-slot queue that a crash can abort wholesale: queued
// submissions are TCP connections into the daemon, and when the daemon dies
// every one of them resets at once (that instant release of descriptors is
// the upward FD spike in the paper's Figure 2).
class ServiceQueue {
 public:
  ServiceQueue(sim::Kernel& kernel, int capacity);

  // Blocks FIFO for a slot.  ok = granted; kUnavailable = aborted by crash.
  // Deadline/kill-aware; a grant is handed onward if the waiter unwinds.
  // Forced inline (defined below the class): it runs in its caller's frame,
  // Schedd::submit_internal, so a client parked here and then killed
  // unwinds one frame fewer, about a microsecond each.
  [[gnu::always_inline]] inline Status acquire(sim::Context& ctx);
  void release();
  // Wakes every queued waiter with an abort.
  void abort_waiters();

  int available() const { return available_; }
  std::size_t queue_length() const { return queue_.size(); }

 private:
  // Stack-allocated in acquire() (the owner is parked in ctx.wait for the
  // whole time it is queued, and every unwind path dequeues it), so a
  // blocked submission costs no allocation per attempt.
  struct Waiter {
    bool granted = false;
    bool aborted = false;
    sim::Event* event;
  };
  void grant_head();
  // The owner of w unwinds (killed or past a deadline) while queued: hands
  // a grant onward, or leaves the queue.
  void cancel(Waiter* w);

  sim::Kernel* kernel_;
  int available_;
  std::deque<Waiter*> queue_;
};

Status ServiceQueue::acquire(sim::Context& ctx) {
  if (queue_.empty() && available_ > 0) {
    --available_;
    return Status::success();
  }
  sim::Event event(*kernel_);
  Waiter waiter;
  waiter.event = &event;
  queue_.push_back(&waiter);
  ScopeGuard cancel_on_unwind([&] { cancel(&waiter); });
  ctx.wait(event);
  cancel_on_unwind.dismiss();
  if (waiter.aborted) {
    return Status::unavailable("connection reset: daemon died");
  }
  return Status::success();
}

struct ScheddConfig {
  std::int64_t fd_capacity = 8192;
  // Descriptors pinned per open client connection (socket, job files, log,
  // lock, ...).  8192 / 20 ~ 410: the table exhausts a little above 400
  // concurrent submitters, matching the paper's collapse point.
  std::int64_t fds_per_connection = 20;
  // Uniform +/- jitter on the per-connection count (job description and
  // transfer-file counts vary per submitter).
  std::int64_t fds_per_connection_jitter = 4;
  // Descriptors the schedd itself needs at the start of each service.
  std::int64_t fds_per_service = 4;
  // Additional descriptors the schedd opens MID-service (spooling the job's
  // transfer files).  This is the allocation that loses the race under
  // saturation: between a completion (which frees space) and the midpoint of
  // the next service, an aggressively retrying client can steal the freed
  // descriptors, and the schedd's own open() then fails => crash.
  std::int64_t fds_per_transfer = 4;
  int service_concurrency = 4;
  Duration service_min = sec(1);
  Duration service_max = sec(2);
  // Service time multiplier grows by this per open connection: models CPU
  // contention.  0 disables.
  double slowdown_per_connection = 1.0 / 400.0;
  Duration connect_time = msec(100);
  // Crash-to-serving time: process restart plus durable job-queue recovery.
  Duration restart_delay = sec(60);
  // Per-instance naming, for worlds with several schedds (the sharded
  // fig1 scenario runs one per site).  fault_site is the injection site
  // consulted per submission; service_stream names the kernel-RNG stream
  // feeding service-time draws; obs_site labels observability events
  // (descriptor-table events use obs_site + ".fds").  Giving each site
  // distinct names keeps its draws and audits independent of every other
  // site -- and therefore independent of how sites are partitioned across
  // shards.  Defaults preserve the single-schedd byte format.
  std::string fault_site = "schedd.submit";
  std::string service_stream = "schedd-service";
  std::string obs_site = "schedd";
};

class Schedd {
 public:
  Schedd(sim::Kernel& kernel, const ScheddConfig& config);

  // One condor_submit: connect, queue for service, get serviced.
  // Blocking in virtual time; deadline/kill aware.  Outcomes:
  //   ok                  -- job accepted and queued durably
  //   resource_exhausted  -- no descriptors for the connection
  //   unavailable         -- schedd down / crashed mid-flight
  Status submit(sim::Context& ctx) { return submit_internal(ctx, nullptr); }

  // Submission of a parsed job description: the connection pins descriptors
  // proportional to the job's transfer-file list, service time scales with
  // the queue count, and all queued jobs land atomically on success.
  Status submit(sim::Context& ctx, const SubmitDescription& job);

  FdTable& fd_table() { return fds_; }

  // Injection site: "schedd.submit", consulted once per submission after
  // the connect.  kFail/kReset reject that submission; kStall stretches its
  // service; kCrash takes the whole daemon down (the broadcast jam);
  // kPartition refuses connections for the window.  Not owned; nullptr
  // disables.
  void set_fault_injector(core::FaultInjector* injector) {
    faults_ = injector;
  }

  // Observability: daemon crashes become kCrash events, descriptor-table
  // exhaustion kTableFull.  Not owned; nullptr off.
  void set_observers(obs::ObserverSet* observers) { observers_ = observers; }

  // Telemetry.
  std::int64_t jobs_submitted() const { return submissions_.total(); }
  const EventSeries& submissions() const { return submissions_; }
  // Connect-to-accepted latency of successful submissions.
  const LatencyHistogram& submit_latency() const { return latency_; }
  int crashes() const { return crashes_; }
  std::int64_t open_connections() const { return open_connections_; }
  bool is_down(TimePoint now) const { return now < restart_until_; }

 private:
  Status submit_internal(sim::Context& ctx, const SubmitDescription* job);
  void crash(sim::Context& ctx);
  double load_factor() const;

  sim::Kernel* kernel_;
  ScheddConfig config_;
  core::FaultInjector* faults_ = nullptr;
  obs::ObserverSet* observers_ = nullptr;
  FdTable fds_;
  ServiceQueue service_slots_;
  sim::Event crash_pulse_;
  TimePoint restart_until_{};  // down until this instant
  int crashes_ = 0;
  std::int64_t open_connections_ = 0;
  EventSeries submissions_{"jobs_submitted"};
  LatencyHistogram latency_;
  Rng service_rng_;
  // Interned per instance (config_.obs_site), not function-static: two
  // schedds with different labels must not alias each other's events.
  obs::SiteId obs_site_;
  obs::SiteId obs_fds_site_;
};

}  // namespace ethergrid::grid
