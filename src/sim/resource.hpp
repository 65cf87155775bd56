// Counting resource with FIFO-fair blocking acquisition.
//
// Models anything countable in the simulated grid: server service slots,
// schedd worker capacity, network channels.  Unlike FdTable (which clients
// may only *observe* -- the whole point of the paper is that such resources
// are unmanaged), Resource queues waiters and grants in order.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "sim/kernel.hpp"

namespace ethergrid::sim {

class Resource {
 public:
  // capacity: total units; all initially available.
  Resource(Kernel& kernel, std::int64_t capacity);

  // Blocks (FIFO) until n units are available, then takes them.
  // Deadline/kill aware via the waiting process's Context.
  void acquire(Context& ctx, std::int64_t n = 1);

  // Non-blocking; returns false (and takes nothing) if fewer than n free.
  bool try_acquire(std::int64_t n = 1);

  // Returns n units and grants queued waiters in order.  It is the caller's
  // bug to release more than it acquired; available() never exceeds
  // capacity() (checked).
  void release(std::int64_t n = 1);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::int64_t in_use() const { return capacity_ - available_; }
  std::size_t queue_length() const { return queue_.size(); }

 private:
  // Lives on the acquiring process's stack for the duration of acquire():
  // the owner cannot leave that frame while queued (it is blocked in
  // ctx.wait, and every unwind path dequeues it), so blocking acquisition
  // allocates nothing.
  struct Waiter {
    std::int64_t count;
    bool granted = false;
    Event* event;
  };

  // Grants from the queue head while units suffice.
  void grant();

  Kernel* kernel_;
  const std::int64_t capacity_;
  std::int64_t available_;
  std::deque<Waiter*> queue_;
};

// RAII guard for Resource units.
class ResourceLease {
 public:
  ResourceLease(Context& ctx, Resource& resource, std::int64_t n = 1)
      : resource_(&resource), count_(n) {
    resource.acquire(ctx, n);
  }
  ~ResourceLease() { release(); }
  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;

  // Early release; idempotent.
  void release() {
    if (resource_) {
      resource_->release(count_);
      resource_ = nullptr;
    }
  }

 private:
  Resource* resource_;
  std::int64_t count_;
};

}  // namespace ethergrid::sim
