// Cross-shard mailboxes: batched, canonically ordered message delivery
// between the shards of a ShardedKernel (shard.hpp).
//
// A cross-shard "message" is a process body to run on the destination
// shard at a virtual deliver time.  Messages are NOT delivered when
// posted: each source shard appends to its own row while it runs a time
// window, and the thread that closes the window drains every row at the
// barrier, sorts the batch into the canonical (deliver_time, src_site, seq) order,
// and spawns the bodies on their destination kernels.  Batching amortizes
// the synchronization point (one drain per window, not one per message)
// and the canonical sort makes delivery order -- and therefore stats and
// fault audits -- independent of both thread scheduling and the number of
// shards the sites were partitioned across.
//
// Ordering key notes:
//   * deliver_time is send_time + latency with latency floored at the
//     sharded kernel's lookahead, so every message lands strictly after
//     the window it was posted in (the conservative-window guarantee).
//   * src_site is a caller-chosen stable id of the SENDING SITE (not the
//     shard index!).  Shard indices change with the partition; site ids do
//     not, which is what keeps same-instant delivery order byte-identical
//     between shards=1 and shards=N.
//   * seq is the per-source-row posting order, so two same-instant
//     messages from one site deliver in their causal posting order.
//
// Thread contract (lock-free by design, not by atomics): row i is written
// only by the worker thread that owns shard i, and only while that shard
// is inside a window; drain() runs only in the window close, while every
// other thread is parked at the barrier.  The ShardedKernel's window barrier provides the
// happens-before edges, so the rows need no locks of their own.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "sim/kernel.hpp"
#include "util/time.hpp"

namespace ethergrid::sim {

struct ShardMessage {
  TimePoint deliver{};        // virtual delivery instant on the dst shard
  std::uint64_t src_site = 0; // stable sending-site id (canonical tiebreak)
  std::uint64_t seq = 0;      // posting order within the source row
  std::size_t dst_shard = 0;
  std::string name;           // process name the delivery spawn uses
  ProcessBody body;
};

class ShardMailbox {
 public:
  explicit ShardMailbox(std::size_t shards);

  // Appends to src_shard's row and stamps msg.seq.  See the thread
  // contract above: callable only from the worker that owns src_shard (or
  // the calling thread while the world is stopped).
  void post(std::size_t src_shard, ShardMessage msg);

  // Window close, at a barrier: moves out every posted message, sorted by
  // (deliver, src_site, seq).
  std::vector<ShardMessage> drain();

  // At a barrier, or while the world is stopped.
  bool empty() const;
  // Messages ever posted (telemetry; at a barrier).
  std::uint64_t posted_total() const { return posted_total_; }

  // Drops all pending messages (shutdown: a message for a world being torn
  // down must not run).
  void clear();

 private:
  std::vector<std::vector<ShardMessage>> rows_;  // indexed by src shard
  std::vector<std::uint64_t> next_seq_;          // per row, never reset
  std::uint64_t posted_total_ = 0;               // updated at drain()
};

}  // namespace ethergrid::sim
