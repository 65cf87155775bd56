#include "grid/schedd.hpp"

#include <algorithm>
#include <cmath>

namespace ethergrid::grid {

ServiceQueue::ServiceQueue(sim::Kernel& kernel, int capacity)
    : kernel_(&kernel), available_(capacity) {}

void ServiceQueue::cancel(Waiter* w) {
  if (w->granted) {
    ++available_;
    grant_head();
  } else if (!w->aborted) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == w) {
        queue_.erase(it);
        break;
      }
    }
  }
}

void ServiceQueue::release() {
  ++available_;
  grant_head();
}

void ServiceQueue::grant_head() {
  while (!queue_.empty() && available_ > 0) {
    Waiter* waiter = queue_.front();
    queue_.pop_front();
    --available_;
    waiter->granted = true;
    waiter->event->set();
  }
}

void ServiceQueue::abort_waiters() {
  for (Waiter* waiter : queue_) {
    waiter->aborted = true;
    waiter->event->set();
  }
  queue_.clear();
}

namespace {

// Connection-scope bookkeeping: counts the connection open and pins its
// descriptors; both are undone however the submission ends (success, crash,
// timeout unwind, kill).
class ConnectionScope {
 public:
  ConnectionScope(std::int64_t* counter, FdLease fds)
      : counter_(counter), fds_(std::move(fds)) {
    ++*counter_;
  }
  ~ConnectionScope() { --*counter_; }
  ConnectionScope(const ConnectionScope&) = delete;
  ConnectionScope& operator=(const ConnectionScope&) = delete;

 private:
  std::int64_t* counter_;
  FdLease fds_;
};

}  // namespace

Schedd::Schedd(sim::Kernel& kernel, const ScheddConfig& config)
    : kernel_(&kernel),
      config_(config),
      fds_(config.fd_capacity),
      service_slots_(kernel, config.service_concurrency),
      crash_pulse_(kernel),
      service_rng_(kernel.rng().stream(config.service_stream)),
      obs_site_(obs::intern_site(config.obs_site)),
      obs_fds_site_(obs::intern_site(config.obs_site + ".fds")) {}

double Schedd::load_factor() const {
  return 1.0 + config_.slowdown_per_connection * double(open_connections_);
}

void Schedd::crash(sim::Context& ctx) {
  if (is_down(ctx.now())) return;
  ++crashes_;
  restart_until_ = ctx.now() + config_.restart_delay;
  ctx.log(LogLevel::kWarn,
          "schedd crashed (#" + std::to_string(crashes_) +
              "): cannot allocate descriptors; dropping all connections");
  if (observers_) {
    const std::string detail =
        "crash #" + std::to_string(crashes_) + ", dropping " +
        std::to_string(open_connections_) + " connection(s)";
    obs::ObsEvent event;
    event.kind = obs::ObsEvent::Kind::kCrash;
    event.time = ctx.now();
    event.site = obs_site_;
    event.detail = detail;
    event.value = double(open_connections_);
    observers_->on_event(event);
  }
  // The broadcast jam: every in-flight service AND every queued connection
  // fails at this instant, releasing their descriptors together (the upward
  // FD spike of Figure 2).
  crash_pulse_.pulse();
  service_slots_.abort_waiters();
}

Status Schedd::submit(sim::Context& ctx, const SubmitDescription& job) {
  return submit_internal(ctx, &job);
}

Status Schedd::submit_internal(sim::Context& ctx,
                               const SubmitDescription* job) {
  const TimePoint submit_start = ctx.now();
  auto emit_table_full = [&](const char* what, std::int64_t want) {
    if (!observers_) return;
    const std::string detail = std::string(what) + ": " +
                               std::to_string(want) +
                               " descriptor(s) unavailable";
    obs::ObsEvent event;
    event.kind = obs::ObsEvent::Kind::kTableFull;
    event.time = ctx.now();
    event.site = obs_fds_site_;
    event.detail = detail;
    event.value = double(want);
    observers_->on_event(event);
  };
  // TCP connect + submitter startup chatter.
  ctx.sleep(config_.connect_time);

  if (is_down(ctx.now())) {
    return Status::unavailable("schedd restarting");
  }

  Duration injected_stall{};
  if (faults_ && faults_->enabled()) {
    core::FaultDecision fault = faults_->decide(config_.fault_site, ctx.now());
    switch (fault.action) {
      case core::FaultDecision::Action::kNone:
        break;
      case core::FaultDecision::Action::kStall:
        injected_stall = fault.stall;  // slow daemon: stretches this service
        break;
      case core::FaultDecision::Action::kFail:
      case core::FaultDecision::Action::kReset:
        return fault.status;  // this submission's connection dies
      case core::FaultDecision::Action::kPartition:
        return fault.status;  // daemon unreachable for the window
      case core::FaultDecision::Action::kCrash:
        crash(ctx);  // the whole daemon dies: the broadcast jam
        return fault.status;
    }
  }

  std::int64_t connection_count;
  if (job) {
    // Deterministic footprint from the job's own transfer list.
    connection_count = job->connection_fd_cost(config_.fds_per_connection);
  } else {
    connection_count = config_.fds_per_connection;
    if (config_.fds_per_connection_jitter > 0) {
      connection_count += service_rng_.uniform_int(
          -config_.fds_per_connection_jitter,
          config_.fds_per_connection_jitter);
    }
  }
  FdLease connection_fds(fds_, connection_count);
  if (!connection_fds.held()) {
    emit_table_full("connect", connection_count);
    return Status::resource_exhausted("no file descriptors for connection");
  }
  ConnectionScope connection(&open_connections_, std::move(connection_fds));

  // FIFO wait for a service slot.  Descriptors stay pinned while queued --
  // that is the mechanism of the paper's collapse.
  Status queued = service_slots_.acquire(ctx);
  if (queued.failed()) {
    return queued;  // connection reset by the crash
  }
  struct SlotRelease {
    ServiceQueue& queue;
    ~SlotRelease() { queue.release(); }
  } slot_release{service_slots_};

  if (is_down(ctx.now())) {
    return Status::unavailable("schedd went down while queued");
  }

  // The schedd allocates its own descriptors to service the job.  Failure
  // here is fatal to the whole daemon.
  FdLease service_fds(fds_, config_.fds_per_service);
  if (!service_fds.held()) {
    emit_table_full("service", config_.fds_per_service);
    crash(ctx);
    return Status::unavailable("schedd crashed");
  }

  const int jobs_in_submission = job ? std::max(job->queue_count, 1) : 1;
  const double seconds = service_rng_.uniform(to_seconds(config_.service_min),
                                              to_seconds(config_.service_max));
  const Duration service_time =
      sec(seconds * load_factor() * double(jobs_in_submission)) +
      injected_stall;

  // Phase 1: receive the job description.
  if (ctx.wait_for(crash_pulse_, service_time / 2)) {
    return Status::unavailable("schedd crashed during service");
  }

  // Mid-service: spool the job's transfer files (more descriptors).
  FdLease transfer_fds;
  if (config_.fds_per_transfer > 0) {
    transfer_fds = FdLease(fds_, config_.fds_per_transfer);
    if (!transfer_fds.held()) {
      emit_table_full("transfer", config_.fds_per_transfer);
      crash(ctx);
      return Status::unavailable("schedd crashed");
    }
  }

  // Phase 2: commit the job to the durable queue.
  if (ctx.wait_for(crash_pulse_, service_time / 2)) {
    return Status::unavailable("schedd crashed during service");
  }

  for (int i = 0; i < jobs_in_submission; ++i) {
    submissions_.record(ctx.now());
  }
  latency_.add(ctx.now() - submit_start);
  return Status::success();
}

}  // namespace ethergrid::grid
