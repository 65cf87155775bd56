// Reference model for the kernel's event queue: one std::push_heap /
// std::pop_heap min-heap over every pending entry.  Its pop order is
// trivially the (time, seq) minimum, so queue_oracle_test.cpp drives it and
// sim::internal::TimerWheel through the same randomized script and
// requires identical pop streams and identical live minima.  Test-only:
// the kernel runs the wheel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/event_queue.hpp"

namespace ethergrid::sim::internal {

// Heap order for std::push_heap's max-heap: the earliest entry on top.
struct QueueEntryLater {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return QueueEntryEarlier{}(b, a);
  }
};

class HeapQueue {
 public:
  void push(const QueueEntry& e) {
    entries_.push_back(e);
    std::push_heap(entries_.begin(), entries_.end(), QueueEntryLater{});
  }

  // Removes and returns the earliest entry if its time is <= limit.
  bool pop_due(TimePoint limit, QueueEntry* out) {
    if (entries_.empty() || entries_.front().time > limit) return false;
    *out = entries_.front();
    std::pop_heap(entries_.begin(), entries_.end(), QueueEntryLater{});
    entries_.pop_back();
    return true;
  }

  // Earliest time among entries not matching pred, or TimePoint::max()
  // when there is none: a scan of every entry.
  template <typename Pred>
  TimePoint min_live(Pred pred) const {
    TimePoint best = TimePoint::max();
    for (const QueueEntry& e : entries_) {
      if (e.time < best && !pred(e)) best = e.time;
    }
    return best;
  }

  // Drops every entry matching pred and re-heapifies (stop-the-world);
  // returns the number dropped.
  template <typename Pred>
  std::size_t compact(Pred pred) {
    const std::size_t before = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(), pred),
                   entries_.end());
    std::make_heap(entries_.begin(), entries_.end(), QueueEntryLater{});
    return before - entries_.size();
  }

 private:
  std::vector<QueueEntry> entries_;  // min-heap via QueueEntryLater
};

}  // namespace ethergrid::sim::internal
