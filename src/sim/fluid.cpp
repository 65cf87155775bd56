#include "sim/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/scope_guard.hpp"

namespace ethergrid::sim {

namespace {

// Work-unit slop absorbing float residue: transfers are measured in bytes,
// so a millionth of a unit is far below anything observable.
constexpr double kWorkEpsilon = 1e-6;

// Completion wakeups round up to whole microseconds (the queue's tick), so
// every planned sleep makes strictly positive progress.
Duration eta_for(double remaining, double rate) {
  const double seconds = remaining / rate;
  // Clamp: a starved flow plans a far-future wakeup and relies on the
  // re-share pulse; 2^53 us (~285 years) stays exact in double and int64.
  const double us = std::min(std::ceil(seconds * 1e6), 9e15);
  return Duration(std::max<std::int64_t>(1, std::int64_t(us)));
}

// Weighted max-min progressive filling over `flows`, honouring rate caps.
// Writes each flow's new rate into Flow::rate.  Deterministic: flows are
// visited in join order and the fill repeats at most flows.size() rounds.
template <typename FlowPtrs>
void fill_shares(double capacity, FlowPtrs& flows) {
  for (auto* flow : flows) flow->rate = -1;  // -1 = not yet frozen
  double spare = capacity;
  std::size_t unfrozen = flows.size();
  while (unfrozen > 0) {
    double weight_sum = 0;
    for (auto* flow : flows) {
      if (flow->rate < 0) weight_sum += flow->weight;
    }
    const double per_weight = weight_sum > 0 ? spare / weight_sum : 0;
    // Freeze every flow whose cap binds at this fill level; if none does,
    // the remaining flows take their proportional share and we are done.
    bool froze = false;
    for (auto* flow : flows) {
      if (flow->rate >= 0) continue;
      const double proportional = per_weight * flow->weight;
      if (flow->rate_cap <= proportional) {
        flow->rate = flow->rate_cap;
        spare -= flow->rate_cap;
        --unfrozen;
        froze = true;
      }
    }
    if (froze) continue;
    for (auto* flow : flows) {
      if (flow->rate < 0) {
        flow->rate = per_weight * flow->weight;
        --unfrozen;
      }
    }
    break;
  }
}

}  // namespace

FluidResource::FluidResource(Kernel& kernel, double capacity)
    : kernel_(&kernel), capacity_(capacity) {
  assert(capacity > 0 && "FluidResource capacity must be positive");
}

FluidResource::~FluidResource() {
  // Flows live on process stacks; Kernel::shutdown() unwinds them before
  // substrates are destroyed (the kernel lifetime rule).
  assert(flows_.empty() && "FluidResource destroyed with active flows");
}

void FluidResource::set_share_listener(ShareListener listener) {
  listener_ = std::move(listener);
}

void FluidResource::settle(Flow& flow, TimePoint now) {
  if (now > flow.settled) {
    flow.remaining -= flow.rate * to_seconds(now - flow.settled);
    if (flow.remaining < 0) flow.remaining = 0;
    flow.settled = now;
  }
}

void FluidResource::reshare(TimePoint now, Flow* skip) {
  ++reshares_;
  std::vector<double> old_rates;
  old_rates.reserve(flows_.size());
  for (Flow* flow : flows_) {
    settle(*flow, now);
    old_rates.push_back(flow->rate);
  }
  fill_shares(capacity_, flows_);
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow* flow = flows_[i];
    if (flow == skip) continue;
    if (flow->rate != old_rates[i]) flow->change->pulse();
  }
  if (listener_) listener_(now, flows_.size(), instantaneous_share(1.0));
}

double FluidResource::instantaneous_share(double weight) const {
  Flow phantom;
  phantom.weight = weight;
  std::vector<Flow*> all(flows_);
  all.push_back(const_cast<Flow*>(&phantom));
  // fill_shares scribbles on Flow::rate; restore the real flows after.
  std::vector<double> saved;
  saved.reserve(flows_.size());
  for (const Flow* flow : flows_) saved.push_back(flow->rate);
  fill_shares(capacity_, all);
  const double share = phantom.rate;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const_cast<Flow*>(flows_[i])->rate = saved[i];
  }
  return share;
}

double FluidResource::allocated_rate() const {
  double total = 0;
  for (const Flow* flow : flows_) total += flow->rate;
  return total;
}

Status FluidResource::transfer(Context& ctx, double work,
                               FluidFlowOptions options) {
  assert(options.weight > 0 && "flow weight must be positive");
  if (work <= 0) return Status::success();

  Event change(*kernel_);
  Flow flow;
  flow.weight = options.weight;
  flow.rate_cap = options.rate_cap;
  flow.remaining = work;
  flow.settled = ctx.now();
  flow.change = &change;
  flows_.push_back(&flow);
  reshare(ctx.now(), &flow);

  // Killed or deadline-unwound mid-transfer: the flow leaves and the
  // survivors speed up at this instant.
  ScopeGuard abort([&] {
    units_moved_ += work - flow.remaining;
    ++aborted_;
    flows_.erase(std::find(flows_.begin(), flows_.end(), &flow));
    reshare(ctx.now(), nullptr);
  });
  while (flow.remaining > kWorkEpsilon) {
    // Cooperative invariant: nothing runs between this plan and the
    // wait, so the rate cannot change before the waiter is registered.
    const bool reshared = ctx.wait_for(change, eta_for(flow.remaining,
                                                       flow.rate));
    settle(flow, ctx.now());
    if (!reshared && flow.remaining > kWorkEpsilon) {
      // Timeout arithmetic rounds *up*, so an expired plan means the
      // work is done up to float residue; anything more is a logic bug.
      assert(flow.remaining <= work * 1e-9 + kWorkEpsilon);
      break;
    }
  }
  abort.dismiss();

  units_moved_ += work;
  ++completed_;
  flows_.erase(std::find(flows_.begin(), flows_.end(), &flow));
  reshare(ctx.now(), nullptr);
  return Status::success();
}

}  // namespace ethergrid::sim
