// ShardedKernel: N independent sim::Kernels run in parallel under
// conservative time-window synchronization.
//
// The grid is partitioned by substrate: each FileServer/Schedd plus the
// clients attached to it lives entirely on one shard, which owns its own
// event queue, virtual clock, fiber scheduler, and RNG streams.  Shards
// interact only through cross-shard messages with a minimum latency (the
// `lookahead`), posted into per-shard mailbox rows (mailbox.hpp) and
// delivered in batches at window boundaries.
//
// The window loop (classic conservative / bounded-lag synchronization,
// all times integer microseconds):
//
//   repeat:
//     flush    -- drain the mailboxes in canonical (deliver, src_site,
//                 seq) order and spawn each message's body on its
//                 destination kernel (it sleeps until its deliver time);
//     scan     -- T := min over shards of Kernel::next_live_event_time(),
//                 the exact live minimum read from each timer wheel's
//                 occupancy bitmaps (stale entries skipped, no full
//                 queue walk); each shard takes it at the end of its
//                 window, on its own worker;
//     window   -- H := min(limit, T + lookahead - 1us); every shard runs
//                 run_until(H) in parallel; barrier.
//
// Safety: a message posted at virtual time s delivers at s + latency with
// latency >= lookahead.  Every event in the window satisfies s >= T, so
// every delivery lands at >= T + lookahead = H + 1us when H is unclamped
// -- strictly beyond the horizon -- and a clamped window (H = limit <
// T + lookahead - 1us) starts within lookahead of the limit, so its
// deliveries land strictly beyond `limit` and simply wait in the mailbox
// for the next call.  No shard can ever receive a message in its past.
//
// Determinism: `shards=N, threads=1` is byte-identical to `threads=N`,
// and -- for worlds built partition-independently (per-site RNG streams
// derived by name from a per-shard kernel constructed with the SAME seed,
// per-site fault sites, site-stable mailbox ids) -- per-site results are
// identical across shard counts too.  The load-bearing details:
//   * the horizon uses the EXACT live-event minimum, so the window
//     schedule is a pure function of the world, not of the partition;
//   * mailbox delivery order is canonical and site-stable;
//   * each shard's window runs on a fixed worker thread, so wall-clock
//     scheduling can reorder nothing that virtual time doesn't.
//
// Thread affinity: shard i is pinned to worker (i % threads) for the
// kernel's whole life, because a fiber must resume on the OS thread that
// materialized it: the compiler may keep a thread-local's address (the
// kernel's tls_running_context, tls_mu_holder) live across a switch, each
// TSan fiber belongs to one thread, and jump_fcontext is sound only
// between contexts of one thread (fcontext.hpp).  Debug and audit builds
// abort, naming the process, on a resume anywhere else.  With
// threads=1 no workers are spawned and every shard runs inline on the
// calling thread -- all ShardedKernel calls must then come from that same
// thread (the model checker relies on this mode).
#pragma once

#include <cstdint>
#include <cstddef>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/mailbox.hpp"
#include "util/time.hpp"

namespace ethergrid::sim {

struct ShardedKernelOptions {
  std::size_t shards = 1;
  // Worker threads executing shard windows; 0 means min(shards,
  // hardware_concurrency).  1 runs everything inline on the caller.
  // Clamped to `shards` (more workers than shards would idle).
  std::size_t threads = 1;
  // Minimum cross-shard latency; post() floors every message latency to
  // this, and the window horizon extends lookahead past the earliest
  // pending event.  Larger = fewer barriers but coarser cross-shard
  // timing; must be >= 1us.
  Duration lookahead = msec(50);
  // Per-shard kernel options (stacks, slabs).  Every shard
  // kernel is constructed with the same seed so name-derived RNG streams
  // are partition-independent.
  KernelOptions kernel;
};

class ShardedKernel {
 public:
  ShardedKernel(std::uint64_t seed, ShardedKernelOptions options = {});
  ~ShardedKernel();  // shuts down (on the pinned workers), then joins them

  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t thread_count() const { return threads_; }
  Duration lookahead() const { return lookahead_; }

  // The shard kernels themselves: build per-shard worlds against these.
  // Between runs (construction, after run_until returns, after shutdown)
  // they may be used freely from the coordinating thread; while a window
  // is running they belong to their workers.
  Kernel& shard(std::size_t i) { return *shards_[i]; }
  const Kernel& shard(std::size_t i) const { return *shards_[i]; }

  ProcessHandle spawn(std::size_t shard, std::string name, ProcessBody body) {
    return shards_[shard]->spawn(std::move(name), std::move(body));
  }

  // Posts a cross-shard message: `body` runs on dst_shard as a process
  // named `name` at virtual time now(src_shard) + max(latency, lookahead).
  // src_site is the sender's stable site id (see mailbox.hpp).  Callable
  // from a process running on src_shard, or from the coordinating thread
  // while the world is stopped.  src == dst is allowed and follows the
  // same batched path (so a 1-shard world behaves exactly like an N-shard
  // one).
  void post(std::size_t src_shard, std::uint64_t src_site,
            std::size_t dst_shard, Duration latency, std::string name,
            ProcessBody body);

  // Runs every shard to virtual time t (windowed as described above) and
  // advances all clocks to exactly t.  Returns true if live events or
  // undelivered messages remain beyond t.  Rethrows the first (by shard
  // index) exception a shard raised.
  bool run_until(TimePoint t);

  // Runs until every shard drains and no message is pending:
  // run_until(TimePoint::max()), except that the clocks stay at the last
  // event instead of jumping to the end of time.
  void run();

  // Kills and drains every shard (each on its pinned worker) and drops
  // undelivered messages.  Idempotent.
  void shutdown();

  // Global virtual time: min over shard clocks (they coincide at every
  // barrier; a shard that went idle early still reads as caught-up).
  TimePoint now() const;

  // Sums over shards.
  std::uint64_t events_processed() const;
  std::size_t live_process_count() const;

  // Telemetry.
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }

 private:
  // Runs job(shard) for every shard on its pinned worker (inline when
  // threads_ == 1) and barriers.  Rethrows the first error by shard index.
  void dispatch(const std::function<void(std::size_t)>& job);
  void worker_main(std::size_t worker);
  // Drains the mailboxes and spawns delivery processes; returns per-shard
  // "received mail" flags via delivered_to_.
  std::size_t flush_mail();
  // One dispatch: run_until(h) + next_live_event_time per shard.  Returns
  // the events the window delivered, summed over shards.
  std::uint64_t run_window(TimePoint h);

  const Duration lookahead_;
  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<Kernel>> shards_;
  ShardMailbox mailbox_;

  // Per-shard results of the last dispatch (written by the owning worker,
  // read by the coordinator after the barrier).
  std::vector<TimePoint> scan_min_;
  std::vector<char> shard_pending_;
  std::vector<std::uint64_t> window_events_;
  std::vector<char> delivered_to_;
  std::vector<std::exception_ptr> errors_;

  std::uint64_t windows_ = 0;
  std::uint64_t messages_delivered_ = 0;
  bool shut_down_ = false;

  // Worker pool (threads_ > 1 only).
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;  // coordinator -> workers: new epoch
  std::condition_variable done_cv_;  // workers -> coordinator: all done
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::size_t pending_workers_ = 0;
  bool stop_ = false;
};

}  // namespace ethergrid::sim
