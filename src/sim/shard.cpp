#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ethergrid::sim {

namespace {

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
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

ShardedKernel::~ShardedKernel() {
  try {
    shutdown();
  } catch (...) {
    // Destructor: swallow; the per-shard kernels' own destructors assert
    // the important postcondition (no live processes).
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardedKernel::worker_main(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    // Fixed shard -> worker pinning: shard i always runs here (fiber
    // resume-thread affinity, see shard.hpp).
    for (std::size_t s = worker; s < shards_.size(); s += threads_) {
      try {
        (*job)(s);
      } catch (...) {
        errors_[s] = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (--pending_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void ShardedKernel::dispatch(const std::function<void(std::size_t)>& job) {
  std::fill(errors_.begin(), errors_.end(), nullptr);
  if (threads_ == 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      try {
        job(s);
      } catch (...) {
        errors_[s] = std::current_exception();
      }
    }
  } else {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      job_ = &job;
      pending_workers_ = threads_;
      ++epoch_;
    }
    pool_cv_.notify_all();
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      done_cv_.wait(lock, [&] { return pending_workers_ == 0; });
      job_ = nullptr;
    }
  }
  // First failure by shard index, so which exception surfaces does not
  // depend on which worker lost a race.
  for (std::exception_ptr& e : errors_) {
    if (e) {
      std::exception_ptr err = e;
      std::fill(errors_.begin(), errors_.end(), nullptr);
      std::rethrow_exception(err);
    }
  }
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

std::uint64_t ShardedKernel::run_window(TimePoint h) {
  dispatch([this, h](std::size_t s) {
    Kernel& k = *shards_[s];
    const std::uint64_t before = k.events_processed();
    shard_pending_[s] = k.run_until(h) ? 1 : 0;
    window_events_[s] = k.events_processed() - before;
    scan_min_[s] = k.next_live_event_time();
  });
  ++windows_;
  std::uint64_t events = 0;
  for (std::uint64_t n : window_events_) events += n;
  return events;
}

bool ShardedKernel::run_until(TimePoint limit) {
  // Fresh scan: the coordinator may have spawned/killed processes since
  // the last window (world construction, a previous run's tail).
  dispatch([this](std::size_t s) {
    scan_min_[s] = shards_[s]->next_live_event_time();
  });
  std::fill(delivered_to_.begin(), delivered_to_.end(), 0);
  for (;;) {
    const std::size_t delivered = flush_mail();
    TimePoint t = TimePoint::max();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      // A shard that received mail has delivery wakes at its current
      // clock, which the pre-flush scan could not see.
      TimePoint m = scan_min_[s];
      if (delivered_to_[s]) m = std::min(m, shards_[s]->now());
      t = std::min(t, m);
    }
    // t == max: drained, and the mailbox was just flushed.
    if (t > limit || t == TimePoint::max()) break;
    // Horizon: everything in [t, h] is safe to run because no message
    // posted at >= t can deliver before t + lookahead = h + 1us.
    TimePoint h = limit;
    if (TimePoint::max() - (lookahead_ - usec(1)) > t) {
      h = std::min(limit, t + lookahead_ - usec(1));
    }
    // A window always delivers the event(s) at its opening instant T --
    // the only way it can't is an mc strategy halting a shard mid-window.
    // Bail instead of spinning on an unmovable horizon; the strategy's
    // driver discards the run.
    if (run_window(h) == 0 && delivered == 0) {
      return true;  // halted mid-window; events remain
    }
  }
  // run(): fully drained; the clocks stay at the last event.
  if (limit == TimePoint::max()) return false;
  // Advance every clock to exactly `limit` (no event processing remains
  // at or below it).
  dispatch([this, limit](std::size_t s) {
    shard_pending_[s] = shards_[s]->run_until(limit) ? 1 : 0;
    scan_min_[s] = shards_[s]->next_live_event_time();
  });
  bool pending = !mailbox_.empty();
  for (char p : shard_pending_) pending = pending || p != 0;
  return pending;
}

void ShardedKernel::run() { (void)run_until(TimePoint::max()); }

void ShardedKernel::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Undelivered messages reference a world about to be torn down; they
  // must never run.
  mailbox_.clear();
  // Each kernel's shutdown drains unwinding fibers, so it must run on the
  // shard's pinned worker.
  dispatch([this](std::size_t s) { shards_[s]->shutdown(); });
}

TimePoint ShardedKernel::now() const {
  TimePoint t = TimePoint::max();
  for (const auto& k : shards_) t = std::min(t, k->now());
  return t;
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
