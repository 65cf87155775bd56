// The event queue for sim::Kernel: a hierarchical timer wheel.
//
// It delivers pending wakeups in strict (time, seq) order -- seq is the
// kernel's global schedule counter, so equal-time entries pop FIFO and the
// whole simulation stays deterministic and byte-identical from run to
// run.  The reference model for that order is a
// plain binary heap over all entries; it lives with the tests
// (tests/sim/heap_queue.hpp), which check the wheel's pop order against it
// under randomized pushes, bounded pops, stale drops and compaction.
//
// Timer wheel geometry (ticks are integer microseconds, the resolution of
// ethergrid::Duration):
//
//   level 0: 1024 slots x 1 us      window  ~1 ms
//   level 1:   64 slots x 1024 us   window  ~65.5 ms
//   level 2:   64 slots x ~65.5 ms  window  ~4.19 s
//   level 3:   64 slots x ~4.19 s   window  ~4.47 min
//   level 4:   64 slots x ~4.47 min window  ~4.77 h
//   level 5:   64 slots x ~4.77 h   window  ~12.7 days
//
// Entries further than ~12.7 simulated days ahead of the cursor go to an
// overflow bag and re-enter the wheel when the cursor comes within range.
// Each level is a ring indexed by (time >> shift) & mask; per-level
// occupancy bitmaps let the cursor jump straight to the next populated
// slot, so advancing across empty virtual time is O(levels), not O(ticks).
//
// Determinism: entries of the granule the cursor is standing on live in a
// "ready run", a vector sorted by (time, seq) and popped from its head in
// O(1).  Slot drains and cascades feed the run; schedules at the current
// instant (yield, Event::pulse) bypass the rings entirely and go straight
// to it.  Since level-0 slots are 1-us granules and virtual time is integer
// microseconds, every entry passes through the run before delivery, which
// restores the global (time, seq) total order regardless of the
// (arbitrary) order in which ring slots accumulated entries.  The run stays
// sorted cheaply: a push at the cursor carries a seq larger than any queued
// one and appends; a drained level-0 slot (one timestamp, its cells listed
// newest first) is reversed, sorted by seq only when cascades interleaved
// it, and merged in; only a model-checker re-push of an older seq inserts
// mid-run.  A burst of hundreds of same-instant wakeups -- Fixed clients
// retrying in lockstep after a crash -- pops at O(1) each.
//
// Slots are intrusive singly-linked lists threaded through two pooled
// struct-of-arrays arenas: a hot key lane (time, seq, next-link) that
// scans, sorts, and cascades touch, and a cold payload lane (process,
// token) read once at delivery.  Cells are recycled through a freelist,
// so steady-state operation allocates nothing; a slot is one 32-bit head
// index, not a container.
//
// Cancellation stays lazy (wake-token mismatch, see kernel.hpp).  The
// stale predicate reads the entry's process, so the wheel calls it only
// where an entry is about to be delivered anyway: it drops stale entries
// when it drains a level-0 slot or refills from the overflow bag, the
// caller rechecks what it pops, and, when the owning kernel's stale counter
// crosses the compaction threshold, the wheel compacts a bounded number of
// *occupied* slots per call -- incremental per-slot reclamation instead of
// a stop-the-world pass.  A cascade moves cells between rings without
// reading any process.
//
// min_live(stale) answers "when is the earliest entry that can still
// fire?" -- exactly, and without visiting every entry -- for the sharded
// kernel's window horizon (Kernel::next_live_event_time).  It reads the
// ready run up to its first live entry, then walks each ring's occupied
// slots with the same bitmaps and wrap mapping as the cursor (a coarse
// ring's slot holding the cursor first), in ring order, which is time
// order: a slot is read only
// while its lower bound beats the best live time found so far, so a ring
// stops right after its first slot holding a live entry.  The overflow bag
// is read only when its minimum could win.  Cost: O(levels + entries in
// the slots visited), and stale entries ahead of the live minimum are
// skipped, not dropped -- the call is const.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/time.hpp"

namespace ethergrid::sim {

class Process;

namespace internal {

// One pending wakeup.  Entries are not removed on cancellation; each
// process carries a wake token and entries whose token no longer matches
// are skipped on pop (see kernel.hpp).
struct QueueEntry {
  TimePoint time;
  std::uint64_t seq;  // FIFO tie-break at equal times => determinism
  Process* process;
  std::uint64_t token;
};

// The delivery order: (time, seq) ascending.
struct QueueEntryEarlier {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

class TimerWheel {
 public:
  using Tick = std::int64_t;  // microseconds since epoch

  static constexpr int kL0Bits = 10;  // 1024 slots
  static constexpr int kLevelBits = 6;  // 64 slots per higher level
  static constexpr int kLevels = 6;   // level 0 + five coarser levels
  static constexpr std::size_t kL0Slots = std::size_t(1) << kL0Bits;
  static constexpr std::size_t kLevelSlots = std::size_t(1) << kLevelBits;
  // Granule shift per level: 0, 10, 16, 22, 28, 34.
  static constexpr int shift_for(int level) {
    return level == 0 ? 0 : kL0Bits + (level - 1) * kLevelBits;
  }
  // Total coverage: 2^40 us (~12.7 days) beyond the cursor
  // (== shift_for(kLevels - 1) + kLevelBits).
  static constexpr int kCoverageBits = kL0Bits + (kLevels - 1) * kLevelBits;

  TimerWheel() {
    heads_.assign(kL0Slots + (kLevels - 1) * kLevelSlots, kNil);
    l0_bits_.assign(kL0Words, 0);
    level_bits_.assign(kLevels - 1, 0);
  }

  void push(const QueueEntry& e) {
    ++size_;
    const Tick t = e.time.time_since_epoch().count();
    if (t <= cursor_) {
      // Current instant (yield, pulse, deadline already due): straight to
      // the ready run -- the rings never see same-instant churn.
      insert_ready(e);
      return;
    }
    place(alloc_cell(e, t), t);
  }

  // Removes and returns the earliest entry with time <= limit, advancing
  // the cursor (draining and cascading slots) as needed.  When it returns
  // false the cursor has advanced to limit and nothing at or before limit
  // remains.  Stale entries met while draining level-0 slots or refilling
  // from the overflow bag are dropped via pred (stale_dropped is
  // incremented for each); the entry returned may still be stale, which
  // the caller rechecks.
  template <typename Pred>
  bool pop_due(TimePoint limit, QueueEntry* out, Pred pred,
               std::size_t* stale_dropped) {
    // An unbounded pop ("next event, whenever it is") must not advance the
    // cursor on exhaustion: parking it at Tick max would classify every
    // later push as current-instant and degenerate the wheel into a heap.
    const bool unbounded = limit == TimePoint::max();
    const Tick limit_t = unbounded ? std::numeric_limits<Tick>::max()
                                   : limit.time_since_epoch().count();
    while (true) {
      if (!ready_empty() &&
          ready_[ready_head_].time.time_since_epoch().count() <= limit_t) {
        *out = ready_[ready_head_];
        if (++ready_head_ == ready_.size()) {
          ready_.clear();
          ready_head_ = 0;
        }
        --size_;
        return true;
      }
      // Pull the overflow bag into the rings once the cursor is close
      // enough that its earliest entry fits the top level.
      if (!overflow_.empty() &&
          ((overflow_min_ >> shift_for(kLevels - 1)) -
           (cursor_ >> shift_for(kLevels - 1))) < Tick(kLevelSlots)) {
        refill_overflow(pred, stale_dropped);
        continue;
      }
      Tick next = 0;
      int level = -1;
      if (!next_occupied(&next, &level)) {
        if (!overflow_.empty() && overflow_min_ <= limit_t) {
          // Far-future entry inside the limit: jump the cursor to within
          // 63 top-level granules of it, which guarantees the refill above
          // captures it next iteration (a full-coverage jump can leave the
          // granule difference at exactly kLevelSlots and loop forever).
          const int top_shift = shift_for(kLevels - 1);
          cursor_ = std::max(
              cursor_,
              overflow_min_ - (Tick(kLevelSlots - 1) << top_shift));
          continue;
        }
        if (!unbounded) cursor_ = std::max(cursor_, limit_t);
        return false;
      }
      if (next > limit_t) {
        cursor_ = std::max(cursor_, limit_t);
        return false;
      }
      cursor_ = next;
      const std::size_t slot = slot_index(level, next);
      clear_bit(level, next);
      const std::uint32_t head = heads_[slot];
      heads_[slot] = kNil;
      if (level != 0) {
        cascade_list(head);
        continue;
      }
      // All entries in a level-0 slot share one 1-us granule, i.e. one
      // timestamp.  The overwhelmingly common shape is a single cell with
      // the ready run empty: hand it back without touching the run.
      if (ready_empty() && key_arena_[head].next == kNil) {
        const QueueEntry e = entry_at(head);
        free_cell(head);
        --size_;
        if (pred(e)) {
          ++*stale_dropped;
          continue;
        }
        *out = e;
        return true;
      }
      drain_list(head, pred, stale_dropped);
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Incremental compaction: sweep up to max_slots occupied slots (bitmap
  // guided, round-robin) plus, periodically, the overflow bag, dropping
  // entries matching pred.  Returns the number dropped.  Each call does
  // work bounded by the entries it reclaims plus O(levels) scan -- no
  // global rebuild.
  template <typename Pred>
  std::size_t compact_step(Pred pred, int max_slots = 4) {
    std::size_t dropped = 0;
    const std::size_t total_slots = heads_.size();
    for (int visited = 0; visited < max_slots && total_slots > 0; ++visited) {
      const std::size_t idx = next_occupied_slot_index(rotor_);
      if (idx == kNoSlot) break;
      rotor_ = (idx + 1) % total_slots;
      dropped += compact_list(&heads_[idx], pred);
      if (heads_[idx] == kNil) clear_bit_by_index(idx);
    }
    // The overflow bag is one more "slot" in the rotation.
    if (++overflow_rotor_ >= 16 && !overflow_.empty()) {
      overflow_rotor_ = 0;
      dropped += compact_overflow(pred);
    }
    size_ -= dropped;
    return dropped;
  }

  // The exact earliest time among entries that do not match stale, or
  // TimePoint::max() when there is none.  Read-only: stale entries are
  // skipped, not dropped.  Walks the ready run, then each ring's occupied
  // slots in ring (= time) order from the cursor, stopping a ring at the
  // first slot whose lower bound cannot beat the best time found so far --
  // which is the slot after the first one holding a live entry, or sooner;
  // the overflow bag is read only when its minimum could.  O(levels +
  // entries in the slots visited).
  template <typename Pred>
  TimePoint min_live(Pred stale) const {
    constexpr Tick kNone = std::numeric_limits<Tick>::max();
    Tick best = kNone;
    // The run is sorted: its first live entry is its minimum.
    for (std::size_t i = ready_head_; i < ready_.size(); ++i) {
      if (!stale(ready_[i])) {
        best = ready_[i].time.time_since_epoch().count();
        break;
      }
    }
    // Level 0: every cell of a slot shares one timestamp, which the ring
    // position fixes (the same wrap mapping next_occupied uses), so one
    // live cell settles the slot.
    {
      const std::size_t pos = std::size_t(cursor_) & (kL0Slots - 1);
      const Tick window_start = cursor_ - Tick(pos);
      Tick prev = cursor_;
      for (std::size_t at = pos;;) {
        const std::size_t found = scan_l0(at);
        if (found == kNoSlot) break;
        const Tick t = found > pos
                           ? window_start + Tick(found)
                           : window_start + Tick(kL0Slots) + Tick(found);
        if (t <= prev || t >= best) break;  // wrapped, or cannot improve
        for (std::uint32_t i = heads_[found]; i != kNil;
             i = key_arena_[i].next) {
          if (!stale(entry_at(i))) {
            best = t;
            break;
          }
        }
        prev = t;
        at = found;
      }
    }
    // Coarser rings: rotate the bitmap so bit 0 is the slot holding the
    // cursor, which must come first (see next_occupied); bit k is then the
    // granule k past the cursor's, whose start bounds its cells from below.
    // A slot lists its cells unordered, so each visited slot is read in
    // full; once one yields a live cell, the next slot's bound ends the
    // ring.
    for (int level = 1; level < kLevels; ++level) {
      const std::uint64_t bits = level_bits_[level - 1];
      if (bits == 0) continue;
      const int shift = shift_for(level);
      const Tick granule = cursor_ >> shift;
      const std::size_t pos = std::size_t(granule) & (kLevelSlots - 1);
      std::uint64_t ahead =
          pos == 0 ? bits : (bits >> pos) | (bits << (kLevelSlots - pos));
      while (ahead != 0) {
        const std::size_t k = std::size_t(__builtin_ctzll(ahead));
        ahead &= ahead - 1;
        if ((granule + Tick(k)) << shift >= best) break;
        const std::size_t slot =
            level_base(level) + ((pos + k) & (kLevelSlots - 1));
        for (std::uint32_t i = heads_[slot]; i != kNil;
             i = key_arena_[i].next) {
          if (key_arena_[i].time < best && !stale(entry_at(i))) {
            best = key_arena_[i].time;
          }
        }
      }
    }
    if (overflow_min_ < best) {
      for (const QueueEntry& e : overflow_) {
        const Tick t = e.time.time_since_epoch().count();
        if (t < best && !stale(e)) best = t;
      }
    }
    return best == kNone ? TimePoint::max() : TimePoint(Duration(best));
  }

  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = ready_head_; i < ready_.size(); ++i) fn(ready_[i]);
    for (const std::uint32_t head : heads_) {
      for (std::uint32_t i = head; i != kNil; i = key_arena_[i].next) {
        fn(entry_at(i));
      }
    }
    for (const QueueEntry& e : overflow_) fn(e);
  }

 private:
  // Hot lane: everything a scan, sort, or cascade needs, 24 bytes/cell.
  struct KeyCell {
    Tick time;
    std::uint64_t seq;
    std::uint32_t next;  // intrusive slot list / freelist link
  };
  // Cold lane: read once, at delivery.
  struct PayCell {
    Process* process;
    std::uint64_t token;
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kNoSlot = ~std::size_t(0);
  static constexpr std::size_t kL0Words = kL0Slots / 64;

  static constexpr std::size_t level_base(int level) {
    return level == 0 ? 0 : kL0Slots + std::size_t(level - 1) * kLevelSlots;
  }
  static constexpr std::size_t level_slot_count(int level) {
    return level == 0 ? kL0Slots : kLevelSlots;
  }

  std::size_t slot_index(int level, Tick t) const {
    const std::size_t mask = level_slot_count(level) - 1;
    return level_base(level) + (std::size_t(t >> shift_for(level)) & mask);
  }

  QueueEntry entry_at(std::uint32_t i) const {
    return QueueEntry{TimePoint(Duration(key_arena_[i].time)),
                      key_arena_[i].seq, pay_arena_[i].process,
                      pay_arena_[i].token};
  }

  std::uint32_t alloc_cell(const QueueEntry& e, Tick t) {
    std::uint32_t idx = free_head_;
    if (idx != kNil) {
      free_head_ = key_arena_[idx].next;
    } else {
      idx = std::uint32_t(key_arena_.size());
      key_arena_.emplace_back();
      pay_arena_.emplace_back();
    }
    key_arena_[idx] = KeyCell{t, e.seq, kNil};
    pay_arena_[idx] = PayCell{e.process, e.token};
    return idx;
  }

  void free_cell(std::uint32_t idx) {
    key_arena_[idx].next = free_head_;
    free_head_ = idx;
  }

  void set_bit(int level, Tick t) {
    const std::size_t mask = level_slot_count(level) - 1;
    const std::size_t bit = std::size_t(t >> shift_for(level)) & mask;
    if (level == 0) {
      l0_bits_[bit >> 6] |= std::uint64_t(1) << (bit & 63);
      l0_word_mask_ |= std::uint32_t(1) << (bit >> 6);
    } else {
      level_bits_[level - 1] |= std::uint64_t(1) << bit;
    }
  }

  void clear_bit(int level, Tick t) {
    const std::size_t mask = level_slot_count(level) - 1;
    const std::size_t bit = std::size_t(t >> shift_for(level)) & mask;
    if (level == 0) {
      if ((l0_bits_[bit >> 6] &= ~(std::uint64_t(1) << (bit & 63))) == 0) {
        l0_word_mask_ &= ~(std::uint32_t(1) << (bit >> 6));
      }
    } else {
      level_bits_[level - 1] &= ~(std::uint64_t(1) << bit);
    }
  }

  void clear_bit_by_index(std::size_t idx) {
    if (idx < kL0Slots) {
      if ((l0_bits_[idx >> 6] &= ~(std::uint64_t(1) << (idx & 63))) == 0) {
        l0_word_mask_ &= ~(std::uint32_t(1) << (idx >> 6));
      }
    } else {
      const std::size_t off = idx - kL0Slots;
      level_bits_[off >> kLevelBits] &=
          ~(std::uint64_t(1) << (off & (kLevelSlots - 1)));
    }
  }

  // Files cell idx (time t, strictly ahead of the cursor) into the finest
  // ring whose window reaches t, or the overflow bag.
  void place(std::uint32_t idx, Tick t) {
    for (int level = 0; level < kLevels; ++level) {
      const int shift = shift_for(level);
      const Tick diff = (t >> shift) - (cursor_ >> shift);
      if (diff < Tick(level_slot_count(level))) {
        const std::size_t slot = slot_index(level, t);
        key_arena_[idx].next = heads_[slot];
        heads_[slot] = idx;
        set_bit(level, t);
        return;
      }
    }
    if (overflow_.empty() || t < overflow_min_) overflow_min_ = t;
    overflow_.push_back(entry_at(idx));
    free_cell(idx);
  }

  // Appends e to the ready run; the caller keeps the run sorted.  Before
  // the vector would grow, a popped prefix at least as long as the live
  // run is reclaimed instead, which moves no more entries than were popped
  // since the last reclaim: O(1) amortized, and the run's capacity tracks
  // its live length even when it never drains empty.
  void append_ready(const QueueEntry& e) {
    if (ready_.size() == ready_.capacity() && ready_head_ != 0 &&
        2 * ready_head_ >= ready_.size()) {
      ready_.erase(ready_.begin(),
                   ready_.begin() + std::ptrdiff_t(ready_head_));
      ready_head_ = 0;
    }
    ready_.push_back(e);
  }

  bool ready_empty() const { return ready_head_ == ready_.size(); }

  // Inserts e into the run at its (time, seq) position.  A fresh schedule's
  // seq exceeds every queued one, so it appends; only the model checker's
  // re-push of an entry it popped to inspect lands mid-run.
  void insert_ready(const QueueEntry& e) {
    if (ready_empty() || !QueueEntryEarlier{}(e, ready_.back())) {
      append_ready(e);
      return;
    }
    const auto at =
        std::upper_bound(ready_.begin() + std::ptrdiff_t(ready_head_),
                         ready_.end(), e, QueueEntryEarlier{});
    ready_.insert(at, e);
  }

  // Restores the run's (time, seq) order after its last `appended`
  // entries were appended unordered.  Cheap when they came in order and
  // after the run's earlier entries -- the shape of every drain into an
  // empty run; otherwise std::sort, which allocates nothing.
  void settle_ready(std::size_t appended) {
    const auto first = ready_.begin() + std::ptrdiff_t(ready_head_);
    const auto mid = ready_.end() - std::ptrdiff_t(appended);
    if (std::is_sorted(mid, ready_.end(), QueueEntryEarlier{}) &&
        (mid == first || appended == 0 ||
         !QueueEntryEarlier{}(*mid, *(mid - 1)))) {
      return;
    }
    std::sort(first, ready_.end(), QueueEntryEarlier{});
  }

  // A level-0 slot holds a single 1-us granule, one timestamp, and lists
  // its cells newest first: reversed, they are in seq order unless a
  // cascade interleaved them.  Everything live goes to the ready run.
  template <typename Pred>
  void drain_list(std::uint32_t head, Pred pred, std::size_t* stale_dropped) {
    std::size_t appended = 0;
    while (head != kNil) {
      const std::uint32_t next = key_arena_[head].next;
      const QueueEntry e = entry_at(head);
      free_cell(head);
      head = next;
      if (pred(e)) {
        ++*stale_dropped;
        --size_;
        continue;
      }
      append_ready(e);
      ++appended;
    }
    std::reverse(ready_.end() - std::ptrdiff_t(appended), ready_.end());
    settle_ready(appended);
  }

  // Coarser slots re-file into finer rings relative to the new cursor.
  // Cells are re-linked in place; place() may touch other slots, never the
  // one being cascaded (every entry's granule diff shrank below this
  // level's window).  No staleness test: that would read every moved
  // entry's process, and a stale cell is dropped anyway where it is next
  // drained, popped, or compacted.
  void cascade_list(std::uint32_t head) {
    std::size_t appended = 0;
    while (head != kNil) {
      const std::uint32_t next = key_arena_[head].next;
      const Tick t = key_arena_[head].time;
      if (t <= cursor_) {
        append_ready(entry_at(head));
        free_cell(head);
        ++appended;
      } else {
        place(head, t);
      }
      head = next;
    }
    settle_ready(appended);
  }

  template <typename Pred>
  void refill_overflow(Pred pred, std::size_t* stale_dropped) {
    std::vector<QueueEntry> keep;
    keep.reserve(overflow_.size());
    overflow_min_ = std::numeric_limits<Tick>::max();
    for (const QueueEntry& e : overflow_) {
      if (pred(e)) {
        ++*stale_dropped;
        --size_;
        continue;
      }
      const Tick t = e.time.time_since_epoch().count();
      if (((t >> shift_for(kLevels - 1)) -
           (cursor_ >> shift_for(kLevels - 1))) < Tick(kLevelSlots)) {
        place(alloc_cell(e, t), t);
      } else {
        keep.push_back(e);
        overflow_min_ = std::min(overflow_min_, t);
      }
    }
    overflow_ = std::move(keep);
  }

  // The earliest occupied slot's start granule across all rings, found by
  // cyclic bitmap scan from just past the cursor's position.  Returns
  // false when every ring is empty.
  bool next_occupied(Tick* next, int* level_out) const {
    Tick best = std::numeric_limits<Tick>::max();
    int best_level = -1;
    // Level 0: scan 16 words cyclically from the cursor's bit + 1.  A bit
    // at or before the cursor's position means the next window (ring
    // wrap); entries are always within cursor + 1023, so the mapping back
    // to an absolute granule is unambiguous.
    {
      const std::size_t pos = std::size_t(cursor_) & (kL0Slots - 1);
      const std::size_t found = scan_l0(pos);
      if (found != kNoSlot) {
        const Tick window_start = cursor_ - Tick(pos);
        best = found > pos ? window_start + Tick(found)
                           : window_start + Tick(kL0Slots) + Tick(found);
        best_level = 0;
      }
    }
    for (int level = 1; level < kLevels; ++level) {
      const std::uint64_t bits = level_bits_[level - 1];
      if (bits == 0) continue;
      const int shift = shift_for(level);
      const std::size_t pos = std::size_t(cursor_ >> shift) & (kLevelSlots - 1);
      // The cursor's own slot occupied means the cursor entered the slot's
      // granule range (e.g. it landed on a finer-level event at the slot's
      // start tick): its entries must cascade NOW, before anything later.
      // A strictly-after scan would only rediscover the bit a full ring
      // revolution later and deliver those wakeups catastrophically late.
      if (bits & (std::uint64_t(1) << pos)) {
        *next = cursor_;
        *level_out = level;
        return true;
      }
      const std::size_t found = scan_word(bits, pos);
      if (found == kNoSlot) continue;
      const Tick cur_slot_start = (cursor_ >> shift) - Tick(pos);
      const Tick slot_granules = found > pos
                                     ? cur_slot_start + Tick(found)
                                     : cur_slot_start + Tick(kLevelSlots) +
                                           Tick(found);
      const Tick start = slot_granules << shift;
      if (start < best) {
        best = start;
        best_level = level;
      }
    }
    if (best_level < 0) return false;
    *next = best;
    *level_out = best_level;
    return true;
  }

  // Next set bit strictly after pos, cyclically, in the level-0 bitmap.
  // The 16-bit word-occupancy summary makes this two loads in the common
  // case instead of a 16-word sweep.
  std::size_t scan_l0(std::size_t pos) const {
    std::size_t word = (pos + 1) >> 6;
    const std::size_t bit = (pos + 1) & 63;
    if (bit != 0) {
      // Partial first word: only bits strictly after pos count.
      const std::uint64_t v = l0_bits_[word] & (~std::uint64_t(0) << bit);
      if (v != 0) return (word << 6) + std::size_t(__builtin_ctzll(v));
      ++word;
    }
    if (l0_word_mask_ == 0) return kNoSlot;
    // First non-empty word cyclically from `word`.  If the rotation wraps
    // back to pos's own word, only bits at or before pos can be set (the
    // partial scan above ruled out the rest), and those mean "next
    // window" -- exactly what the caller's wrap mapping expects.
    const std::size_t start = word & (kL0Words - 1);
    const std::uint32_t rotated =
        ((l0_word_mask_ >> start) | (l0_word_mask_ << (kL0Words - start))) &
        ((std::uint32_t(1) << kL0Words) - 1);
    const std::size_t w =
        (start + std::size_t(__builtin_ctz(rotated))) & (kL0Words - 1);
    return (w << 6) + std::size_t(__builtin_ctzll(l0_bits_[w]));
  }

  // Next set bit strictly after pos, cyclically, in a single 64-bit word.
  static std::size_t scan_word(std::uint64_t bits, std::size_t pos) {
    const std::uint64_t ahead =
        pos + 1 < 64 ? bits & (~std::uint64_t(0) << (pos + 1)) : 0;
    if (ahead != 0) return std::size_t(__builtin_ctzll(ahead));
    if (bits != 0) return std::size_t(__builtin_ctzll(bits));  // wrapped
    return kNoSlot;
  }

  std::size_t next_occupied_slot_index(std::size_t from) const {
    const std::size_t total = heads_.size();
    for (std::size_t n = 0; n < total; ++n) {
      const std::size_t idx = (from + n) % total;
      if (idx < kL0Slots) {
        if (l0_bits_[idx >> 6] == 0) {
          // Skip the rest of this empty word.
          n += 63 - (idx & 63);
          continue;
        }
        if (l0_bits_[idx >> 6] & (std::uint64_t(1) << (idx & 63))) return idx;
      } else {
        const std::size_t off = idx - kL0Slots;
        const std::uint64_t bits = level_bits_[off >> kLevelBits];
        if (bits == 0) {
          n += (kLevelSlots - 1) - (off & (kLevelSlots - 1));
          continue;
        }
        if (bits & (std::uint64_t(1) << (off & (kLevelSlots - 1)))) return idx;
      }
    }
    return kNoSlot;
  }

  // Unlinks and frees every cell in *head's list matching pred.
  template <typename Pred>
  std::size_t compact_list(std::uint32_t* head, Pred pred) {
    std::size_t dropped = 0;
    std::uint32_t* link = head;
    while (*link != kNil) {
      const std::uint32_t i = *link;
      if (pred(entry_at(i))) {
        *link = key_arena_[i].next;
        free_cell(i);
        ++dropped;
      } else {
        link = &key_arena_[i].next;
      }
    }
    return dropped;
  }

  template <typename Pred>
  std::size_t compact_overflow(Pred pred) {
    const std::size_t before = overflow_.size();
    overflow_.erase(
        std::remove_if(overflow_.begin(), overflow_.end(), pred),
        overflow_.end());
    overflow_min_ = std::numeric_limits<Tick>::max();
    for (const QueueEntry& e : overflow_) {
      overflow_min_ =
          std::min(overflow_min_, e.time.time_since_epoch().count());
    }
    return before - overflow_.size();
  }

  Tick cursor_ = 0;  // granule of the last delivery / advance (us)
  std::size_t size_ = 0;  // total entries, stale included
  // The ready run: ready_[ready_head_..] sorted by (time, seq); entries
  // before ready_head_ were popped and await reclaiming.
  std::vector<QueueEntry> ready_;
  std::size_t ready_head_ = 0;
  std::vector<std::uint32_t> heads_;  // slot -> first cell (L0, then 1..5)
  std::vector<KeyCell> key_arena_;
  std::vector<PayCell> pay_arena_;
  std::uint32_t free_head_ = kNil;
  std::vector<std::uint64_t> l0_bits_;
  std::uint32_t l0_word_mask_ = 0;  // bit w <=> l0_bits_[w] != 0
  std::vector<std::uint64_t> level_bits_;
  std::vector<QueueEntry> overflow_;
  Tick overflow_min_ = std::numeric_limits<Tick>::max();
  std::size_t rotor_ = 0;          // incremental-compaction position
  int overflow_rotor_ = 0;
};

}  // namespace internal
}  // namespace ethergrid::sim
