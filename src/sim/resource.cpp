#include "sim/resource.hpp"

#include <algorithm>
#include <cassert>

#include "util/scope_guard.hpp"

namespace ethergrid::sim {

Resource::Resource(Kernel& kernel, std::int64_t capacity)
    : kernel_(&kernel), capacity_(capacity), available_(capacity) {
  assert(capacity >= 0);
}

void Resource::acquire(Context& ctx, std::int64_t n) {
  assert(n >= 0 && n <= capacity_);
  if (queue_.empty() && available_ >= n) {
    available_ -= n;
    return;
  }
  Event event(*kernel_);
  Waiter waiter{n, false, &event};
  queue_.push_back(&waiter);
  // Killed or deadline-unwound while queued: leave the queue.
  ScopeGuard cancel([&] {
    if (waiter.granted) {
      // Units were granted while we were being cancelled; hand them on.
      available_ += n;
      grant();
    } else {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), &waiter),
                   queue_.end());
    }
  });
  ctx.wait(event);
  cancel.dismiss();
}

bool Resource::try_acquire(std::int64_t n) {
  if (queue_.empty() && available_ >= n) {
    available_ -= n;
    return true;
  }
  return false;
}

void Resource::release(std::int64_t n) {
  available_ += n;
  assert(available_ <= capacity_ && "released more than acquired");
  grant();
}

void Resource::grant() {
  while (!queue_.empty() && queue_.front()->count <= available_) {
    Waiter* waiter = queue_.front();
    queue_.pop_front();
    available_ -= waiter->count;
    waiter->granted = true;
    waiter->event->set();
  }
}

}  // namespace ethergrid::sim
