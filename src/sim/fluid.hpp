// FluidResource: a capacity-constrained resource whose concurrent flows
// share bandwidth by weighted max-min fairness (the SimGrid "surf" fluid
// model), instead of queueing binarily on a service slot.
//
// Each transfer() registers a flow {weight, rate_cap, remaining work} and
// the resource recomputes every flow's share by progressive filling:
// capacity is divided in proportion to weight, flows whose rate cap (or
// nothing else) freezes them below their proportional share are pinned
// there, and the slack is re-divided among the rest.  A flow joining or
// leaving re-shares the whole resource at that instant: flows whose rate
// changed are pulsed so they re-plan their completion wakeup on the timer
// wheel.  Between joins and leaves every flow progresses linearly, so a
// transfer is a handful of kernel events, not a per-byte loop.
//
// Determinism: all sharing state is touched only from process context under
// the kernel's serialization, flows re-share in join order, and completion
// wakeups ride the ordinary event queue -- so a fixed seed yields identical
// runs on every build and at any shard count
// (a FluidResource belongs to one shard's kernel; cross-shard transfers
// ride the mailbox contract like any other cross-shard work).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "sim/kernel.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

namespace ethergrid::sim {

struct FluidFlowOptions {
  // Max-min weight: a flow's proportional claim on the capacity.
  double weight = 1.0;
  // Upper bound on this flow's rate (units/second); reservations pin their
  // granted rate here.  Unbounded by default.
  double rate_cap = std::numeric_limits<double>::infinity();
};

class FluidResource {
 public:
  // `capacity` is in work units per second (bytes/s for network media).
  FluidResource(Kernel& kernel, double capacity);
  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;
  ~FluidResource();

  // Moves `work` units through the resource at this flow's fair share,
  // blocking in virtual time until the last unit lands.  Deadline- and
  // kill-aware: an unwound flow leaves immediately and the survivors
  // re-share at that instant (the "broken connection frees the medium"
  // property the paper's substrates rely on).
  Status transfer(Context& ctx, double work, FluidFlowOptions options = {});

  double capacity() const { return capacity_; }
  std::size_t active_flows() const { return flows_.size(); }

  // Rate a hypothetical new flow of `weight` would be assigned right now --
  // the fluid analogue of carrier sense (share below threshold == busy).
  double instantaneous_share(double weight = 1.0) const;

  // Sum of the rates currently assigned (<= capacity).
  double allocated_rate() const;

  // Called after every re-share with (now, active flows, unit-weight
  // share); the grid substrate bridges this to flow_share observer events.
  using ShareListener = std::function<void(TimePoint, std::size_t, double)>;
  void set_share_listener(ShareListener listener);

  // Telemetry.
  std::int64_t transfers_completed() const { return completed_; }
  std::int64_t transfers_aborted() const { return aborted_; }
  double units_moved() const { return units_moved_; }
  std::uint64_t reshares() const { return reshares_; }

 private:
  struct Flow {
    double weight = 1.0;
    double rate_cap = std::numeric_limits<double>::infinity();
    double remaining = 0;   // work units still to move
    double rate = 0;        // currently assigned share (units/s)
    TimePoint settled{};    // instant `remaining` was last brought current
    Event* change = nullptr;  // pulsed when `rate` changes under the flow
  };

  // Brings flow.remaining current to `now` at the flow's present rate.
  static void settle(Flow& flow, TimePoint now);

  // Recomputes every flow's share (weighted max-min progressive filling),
  // settling each flow at `now` first; pulses flows whose rate changed,
  // except `skip` (the flow performing the join/leave, which re-plans
  // inline).  Runs in process context only.
  void reshare(TimePoint now, Flow* skip);

  Kernel* kernel_;
  const double capacity_;
  std::vector<Flow*> flows_;  // join order; no ownership (stack frames)
  ShareListener listener_;
  std::int64_t completed_ = 0;
  std::int64_t aborted_ = 0;
  double units_moved_ = 0;
  std::uint64_t reshares_ = 0;
};

}  // namespace ethergrid::sim
