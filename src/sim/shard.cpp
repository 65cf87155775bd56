#include "sim/shard.hpp"

#include <sched.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <utility>

namespace ethergrid::sim {

namespace {

// How long a thread that is not the last to arrive polls the phase word
// before it parks on it.  A grid_sharded window takes ~5-15us, so a normal
// wait ends inside the budget without a futex wake; a wait for the
// caller's next call, or on an oversubscribed machine, parks after it.
constexpr std::chrono::microseconds kPollBudget{50};

std::size_t resolve_threads(std::size_t requested, std::size_t shards) {
  if (requested == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    requested = hw > 0 ? hw : 1;
  }
  return std::min(std::max<std::size_t>(requested, 1), std::max<std::size_t>(shards, 1));
}

}  // namespace

ShardedKernel::ShardedKernel(std::uint64_t seed, ShardedKernelOptions options)
    : lookahead_(std::max(options.lookahead, usec(1))),
      threads_(resolve_threads(options.threads, options.shards)),
      mailbox_(std::max<std::size_t>(options.shards, 1)) {
  const std::size_t shards = std::max<std::size_t>(options.shards, 1);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Same seed everywhere: per-site streams are derived by NAME from the
    // kernel root, so a site draws the same sequence no matter which shard
    // (or how many shards) it landed on.
    shards_.push_back(std::make_unique<Kernel>(seed, options.kernel));
  }
  scan_min_.assign(shards, TimePoint::max());
  shard_pending_.assign(shards, 0);
  window_events_.assign(shards, 0);
  delivered_to_.assign(shards, 0);
  errors_.assign(shards, nullptr);
  parks_.assign(threads_, 0);
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardedKernel::~ShardedKernel() {
  try {
    shutdown();
  } catch (...) {
    // Destructor: swallow; the per-shard kernels' own destructors assert
    // the important postcondition (no live processes).
  }
  if (workers_.empty()) return;
  request_ = Step::kStop;
  arrive(nullptr);
  for (std::thread& t : workers_) t.join();
}

void ShardedKernel::worker_main(std::size_t worker) {
  // Null while waiting for the caller's next request: that wait is the
  // caller's time, not the barrier's.
  std::uint64_t* parks = nullptr;
  for (;;) {
    arrive(parks);
    if (step_ == Step::kStop) return;
    // Idle: arrive again at once, to wait for the caller's next request.
    const bool busy = step_ != Step::kIdle;
    parks = busy ? &parks_[worker] : nullptr;
    if (busy) run_step(worker);
  }
}

void ShardedKernel::drive(Step request) {
  const std::thread::id self = std::this_thread::get_id();
  if (caller_ == std::thread::id()) caller_ = self;
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  if (caller_ != self) {
    std::cerr << "sim sharded kernel: called from thread " << self
              << ", but thread " << caller_ << " owns it and runs shard 0\n";
    std::abort();
  }
#endif
  request_ = request;
  for (;;) {
    arrive(&parks_[0]);
    if (step_ == Step::kIdle) break;
    run_step(0);
  }
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ShardedKernel::arrive(std::uint64_t* parks) {
  if (threads_ == 1) {
    close_phase();
    return;
  }
  // Read the phase before arriving: it cannot move until this thread has.
  const std::uint32_t phase = phase_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 < threads_) {
    // Poll first, handing the core to any runnable thread between reads
    // (the straggler this barrier waits for, if it shares the core), and
    // park only once the budget is spent.
    const auto give_up = std::chrono::steady_clock::now() + kPollBudget;
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (std::chrono::steady_clock::now() >= give_up) {
        // Sequenced before this thread's next arrival, which publishes it.
        if (parks) ++*parks;
        phase_.wait(phase, std::memory_order_acquire);
        return;
      }
      sched_yield();
    }
    return;
  }
  arrived_.store(0, std::memory_order_relaxed);
  close_phase();
  phase_.store(phase + 1, std::memory_order_release);
  phase_.notify_all();
}

void ShardedKernel::run_step(std::size_t worker) {
  // Fixed shard -> thread pinning: shard s always runs on worker s %
  // threads_ (fiber resume-thread affinity, see shard.hpp).
  for (std::size_t s = worker; s < shards_.size(); s += threads_) {
    Kernel& k = *shards_[s];
    try {
      if (step_ == Step::kShutdown) {
        k.shutdown();
        continue;
      }
      if (step_ == Step::kWindow) {
        const std::uint64_t before = k.events_processed();
        shard_pending_[s] = k.run_until(horizon_) ? 1 : 0;
        window_events_[s] = k.events_processed() - before;
      } else if (step_ == Step::kAdvance) {
        shard_pending_[s] = k.run_until(limit_) ? 1 : 0;
      }
      scan_min_[s] = k.next_live_event_time();
    } catch (...) {
      errors_[s] = std::current_exception();
    }
  }
}

void ShardedKernel::close_phase() noexcept {
  const Step done = std::exchange(step_, Step::kIdle);
  if (done == Step::kIdle) {
    step_ = request_;
    return;
  }
  // First failure by shard index, so which exception surfaces does not
  // depend on which worker lost a race.
  for (std::exception_ptr& e : errors_) {
    if (e && !error_) error_ = e;
    e = nullptr;
  }
  if (error_ || done == Step::kShutdown) return;
  if (done == Step::kAdvance) {
    pending_ = !mailbox_.empty();
    for (char p : shard_pending_) pending_ = pending_ || p != 0;
    return;
  }
  if (done == Step::kWindow) {
    ++windows_;
    std::uint64_t events = 0;
    for (std::uint64_t n : window_events_) events += n;
    // A window always delivers the event(s) at its opening instant T,
    // unless an mc strategy halted a shard mid-window.  Bail instead of
    // spinning on an unmovable horizon; the strategy's driver discards it.
    if (events == 0 && delivered_ == 0) {
      pending_ = true;  // halted mid-window; events remain
      return;
    }
  }
  try {
    delivered_ = flush_mail();
  } catch (...) {
    error_ = std::current_exception();
    return;
  }
  TimePoint t = TimePoint::max();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    // A shard that received mail has delivery wakes at its current
    // clock, which the pre-flush scan could not see.
    TimePoint m = scan_min_[s];
    if (delivered_to_[s]) m = std::min(m, shards_[s]->now());
    t = std::min(t, m);
  }
  // t == max: drained, and the mailbox was just flushed.
  if (t > limit_ || t == TimePoint::max()) {
    // run(): fully drained, the clocks stay at the last event.  Otherwise
    // advance every clock to exactly `limit` (no event remains up to it).
    pending_ = false;
    if (limit_ != TimePoint::max()) step_ = Step::kAdvance;
    return;
  }
  // Horizon: everything in [t, h] is safe to run because no message
  // posted at >= t can deliver before t + lookahead = h + 1us.
  horizon_ = limit_;
  if (TimePoint::max() - (lookahead_ - usec(1)) > t) {
    horizon_ = std::min(limit_, t + lookahead_ - usec(1));
  }
  step_ = Step::kWindow;
}

void ShardedKernel::post(std::size_t src_shard, std::uint64_t src_site,
                         std::size_t dst_shard, Duration latency,
                         std::string name, ProcessBody body) {
  assert(src_shard < shards_.size() && dst_shard < shards_.size());
  ShardMessage m;
  m.deliver = shards_[src_shard]->now() + std::max(latency, lookahead_);
  m.src_site = src_site;
  m.dst_shard = dst_shard;
  m.name = std::move(name);
  m.body = std::move(body);
  mailbox_.post(src_shard, std::move(m));
}

std::size_t ShardedKernel::flush_mail() {
  std::fill(delivered_to_.begin(), delivered_to_.end(), 0);
  if (mailbox_.empty()) return 0;
  std::vector<ShardMessage> batch = mailbox_.drain();
  for (ShardMessage& m : batch) {
    Kernel& dst = *shards_[m.dst_shard];
    delivered_to_[m.dst_shard] = 1;
    const TimePoint deliver = m.deliver;
    // The delivery process is spawned at the destination's current time
    // (a barrier, so its wake is the first thing the next window runs)
    // and sleeps out the remaining latency.  Spawning here, in canonical
    // batch order, is what pins the (id, seq) assignment -- and therefore
    // same-instant delivery order -- regardless of threads or partition.
    dst.spawn(std::move(m.name),
              [deliver, body = std::move(m.body)](Context& ctx) {
                if (deliver > ctx.now()) ctx.sleep(deliver - ctx.now());
                body(ctx);
              });
  }
  messages_delivered_ += batch.size();
  return batch.size();
}

bool ShardedKernel::run_until(TimePoint limit) {
  // Fresh scan first: the caller may have spawned/killed processes since
  // the last window (world construction, a previous run's tail).
  limit_ = limit;
  drive(Step::kScan);
  return pending_;
}

void ShardedKernel::run() { (void)run_until(TimePoint::max()); }

void ShardedKernel::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Undelivered messages reference a world about to be torn down; they
  // must never run.
  mailbox_.clear();
  // Each kernel's shutdown drains unwinding fibers, so it must run on the
  // shard's pinned thread.
  drive(Step::kShutdown);
}

TimePoint ShardedKernel::now() const {
  TimePoint t = TimePoint::max();
  for (const auto& k : shards_) t = std::min(t, k->now());
  return t;
}

std::uint64_t ShardedKernel::barrier_parks() const {
  // Stopped: every pool worker is back at the barrier, waiting for the next
  // call.  Its arrival published its counter, and this acquire load of the
  // arrival count orders all of them before the sum.
  while (arrived_.load(std::memory_order_acquire) + 1 < threads_) {
    sched_yield();
  }
  std::uint64_t total = 0;
  for (std::uint64_t n : parks_) total += n;
  return total;
}

std::uint64_t ShardedKernel::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& k : shards_) total += k->events_processed();
  return total;
}

std::size_t ShardedKernel::live_process_count() const {
  std::size_t total = 0;
  for (const auto& k : shards_) total += k->live_process_count();
  return total;
}

}  // namespace ethergrid::sim
