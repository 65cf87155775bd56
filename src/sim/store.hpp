// Store<T>: a bounded FIFO channel between simulated processes.
//
// put() blocks while full, get() blocks while empty; both are deadline- and
// kill-aware via the caller's Context.  Wakeups use Event::pulse and a
// re-check loop.  Like every kernel-bound object a Store has no lock: only
// the thread draining its kernel touches it (kernel.hpp, "Ownership"), and
// exactly one process runs at a time, so the classic missed-wakeup race
// cannot occur (no other process runs between a state check and the wait
// registration).
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <utility>

#include "sim/kernel.hpp"

namespace ethergrid::sim {

template <typename T>
class Store {
 public:
  explicit Store(Kernel& kernel,
                 std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : capacity_(capacity), not_empty_(kernel), not_full_(kernel) {}

  void put(Context& ctx, T item) {
    while (true) {
      if (items_.size() < capacity_) {
        items_.push_back(std::move(item));
        not_empty_.pulse();
        return;
      }
      ctx.wait(not_full_waiting());
    }
  }

  bool try_put(T item) {
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.pulse();
    return true;
  }

  T get(Context& ctx) {
    while (true) {
      if (!items_.empty()) {
        T value = std::move(items_.front());
        items_.pop_front();
        not_full_.pulse();
        return value;
      }
      ctx.wait(not_empty_waiting());
    }
  }

  bool try_get(T* out) {
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    not_full_.pulse();
    return true;
  }

  std::size_t size() const { return items_.size(); }

  std::size_t capacity() const { return capacity_; }

  bool empty() const { return items_.empty(); }

 private:
  // The Events are pulse-only; reset them before waiting so a stale latched
  // state (from a set() nobody performed -- pulse never latches, but be
  // defensive) cannot cause a spin.
  Event& not_empty_waiting() {
    not_empty_.reset();
    return not_empty_;
  }
  Event& not_full_waiting() {
    not_full_.reset();
    return not_full_;
  }

  const std::size_t capacity_;
  std::deque<T> items_;
  Event not_empty_;
  Event not_full_;
};

}  // namespace ethergrid::sim
