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
//                 window, on its own thread;
//     window   -- H := min(limit, T + lookahead - 1us); every shard runs
//                 run_until(H) in parallel; barrier.
//
// Who runs it: no coordinator thread.  The caller is worker 0, next to
// threads - 1 pool workers.  Each thread runs its shards' window,
// publishes the results and arrives at one phase barrier; the LAST to
// arrive closes the window (count, flush, scan, next H or stop) before it
// releases the others.  Which thread closes depends on timing; what the
// close computes does not: it reads only values published before the
// barrier, and every other thread waits while it runs.  A waiting thread
// polls the phase word, yielding its core between polls, for about a
// normal window's length (50us) and only then parks on it, so a window's
// release costs no futex wake on the next window's critical path.
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
// Thread affinity: shard i is pinned to worker (i % threads), worker 0
// being the caller, because a fiber must resume on the OS thread that
// materialized it: the compiler may keep a thread-local's address (errno,
// the C++ runtime's exception globals) live across a switch, each TSan
// fiber belongs to one thread, and jump_fcontext is sound only between
// contexts of one thread (fcontext.hpp).  A shard kernel has no lock
// (kernel.hpp, "Ownership"): its worker owns it during a window, and the
// phase barrier's release/acquire hands it to whichever thread closes the
// window (flush_mail spawns into it) and back.  So at every thread count
// all ShardedKernel calls must come from one thread, the one the first
// run_until/run/shutdown records; debug and audit builds abort, naming it,
// on a call from another (and, naming the process, on a stray resume).
// threads=1 runs every shard inline on the caller (the mc relies on it).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/mailbox.hpp"
#include "util/time.hpp"

namespace ethergrid::sim {

struct ShardedKernelOptions {
  std::size_t shards = 1;
  // Threads executing shard windows, the calling thread included (it is
  // worker 0 and runs shards i % threads == 0; threads - 1 OS threads are
  // spawned for the rest); 0 means min(shards, hardware_concurrency).  1
  // runs everything inline on the caller.  Clamped to `shards` (more
  // workers than shards would idle).
  std::size_t threads = 1;
  // Minimum cross-shard latency; post() floors every message latency to
  // this, and the window horizon extends lookahead past the earliest
  // pending event.  Larger = fewer barriers but coarser cross-shard
  // timing; must be >= 1us.
  Duration lookahead = msec(50);
  // Per-shard kernel options (fiber stack size).  Every shard
  // kernel is constructed with the same seed so name-derived RNG streams
  // are partition-independent.
  KernelOptions kernel;
};

class ShardedKernel {
 public:
  ShardedKernel(std::uint64_t seed, ShardedKernelOptions options = {});
  ~ShardedKernel();  // shuts down (on the pinned threads), then joins them

  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t thread_count() const { return threads_; }
  Duration lookahead() const { return lookahead_; }

  // The shard kernels themselves: build per-shard worlds against these.
  // Between runs (construction, after run_until returns, after shutdown)
  // they may be used freely from the calling thread; while a window is
  // running they belong to their workers.
  Kernel& shard(std::size_t i) { return *shards_[i]; }
  const Kernel& shard(std::size_t i) const { return *shards_[i]; }

  ProcessHandle spawn(std::size_t shard, std::string name, ProcessBody body) {
    return shards_[shard]->spawn(std::move(name), std::move(body));
  }

  // Posts a cross-shard message: `body` runs on dst_shard as a process
  // named `name` at virtual time now(src_shard) + max(latency, lookahead).
  // src_site is the sender's stable site id (see mailbox.hpp).  Callable
  // from a process running on src_shard, or from the calling thread
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

  // Kills and drains every shard (each on its pinned thread) and drops
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
  // Barrier arrivals inside run_until/run/shutdown that used up the poll
  // budget and parked on the phase word; a pool worker waiting for the
  // caller's next call is not counted.  At most threads - 1 per phase, 0
  // with threads == 1.  Call it while the world is stopped.
  std::uint64_t barrier_parks() const;

 private:
  // What every thread does with its shards between two barrier crossings.
  enum class Step { kIdle, kScan, kWindow, kAdvance, kShutdown, kStop };

  void worker_main(std::size_t worker);
  // Runs `request` and the steps it leads to on the calling thread (worker
  // 0) until the world is idle again, then rethrows the first error.
  void drive(Step request);
  // The phase barrier: returns once every thread arrived and the last one
  // ran close_phase() (inline with threads_ == 1).  `parks` is the arriving
  // worker's park counter, or null for a pool worker waiting for the
  // caller's next request.
  void arrive(std::uint64_t* parks);
  // Runs step_ for worker's shards, publishing per-shard results.
  void run_step(std::size_t worker);
  // The serial step between phases: picks the next step_ from what the
  // finished one published.  Runs on exactly one thread per phase.
  void close_phase() noexcept;
  // Drains the mailboxes and spawns delivery processes; returns per-shard
  // "received mail" flags via delivered_to_.
  std::size_t flush_mail();

  const Duration lookahead_;
  std::size_t threads_ = 1;
  std::vector<std::unique_ptr<Kernel>> shards_;
  ShardMailbox mailbox_;

  // Per-shard results of the last step (written by the owning thread,
  // read by close_phase after the barrier).
  std::vector<TimePoint> scan_min_;
  std::vector<char> shard_pending_;
  std::vector<std::uint64_t> window_events_;
  std::vector<char> delivered_to_;
  std::vector<std::exception_ptr> errors_;

  // Loop state: written by the caller before it arrives, or by
  // close_phase; read by every thread after the barrier.
  Step step_ = Step::kIdle;
  Step request_ = Step::kIdle;
  TimePoint limit_{};
  TimePoint horizon_{};
  std::size_t delivered_ = 0;  // messages the last flush delivered
  bool pending_ = false;       // run_until's result
  std::exception_ptr error_;   // first failure of the last drive()

  std::uint64_t windows_ = 0;
  std::uint64_t messages_delivered_ = 0;
  bool shut_down_ = false;
  std::thread::id caller_;

  // Worker pool (threads_ > 1 only): the phase barrier as a futex word
  // plus an arrival count, and workers 1..threads_-1.
  std::atomic<std::uint32_t> phase_{0};
  std::atomic<std::size_t> arrived_{0};
  std::vector<std::thread> workers_;
  // Per-worker barrier parks, each written only by its own thread.
  std::vector<std::uint64_t> parks_;
};

}  // namespace ethergrid::sim
