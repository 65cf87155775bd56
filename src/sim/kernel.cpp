#include "sim/kernel.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

// Sanitizer feature detection.  Both sanitizers need the fiber-switch
// annotations: ASan so its shadow stack follows each switch, TSan so its
// per-fiber shadow stack and happens-before clock do.
#if defined(__SANITIZE_ADDRESS__)
#define ETHERGRID_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ETHERGRID_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define ETHERGRID_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ETHERGRID_TSAN 1
#endif
#endif

#ifdef ETHERGRID_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define ETHERGRID_NO_ASAN __attribute__((no_sanitize_address))
#else
#define ETHERGRID_NO_ASAN
#endif
#ifdef ETHERGRID_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace ethergrid::sim {

namespace {

// No-op shims when ASan is absent, so call sites stay unconditional.
inline void asan_start_switch(void** fake_stack_save, const void* bottom,
                              std::size_t size) {
#ifdef ETHERGRID_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

inline void asan_finish_switch(void* fake_stack_save, const void** bottom_old,
                               std::size_t* size_old) {
#ifdef ETHERGRID_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

// Pooled stacks are poisoned wholesale so a dangling pointer into a dead
// fiber's frame (use-after-return across the pool) faults loudly under
// ASan instead of silently reading the next tenant's frames.  Unpoisoned
// again, all but the canary band, when the stack leaves the pool; whole
// arenas are unpoisoned before they are unmapped, so stale shadow never
// outlives the mapping.
inline void asan_poison(const void* lo, std::size_t size) {
#ifdef ETHERGRID_ASAN
  __asan_poison_memory_region(lo, size);
#else
  (void)lo;
  (void)size;
#endif
}

inline void asan_unpoison(const void* lo, std::size_t size) {
#ifdef ETHERGRID_ASAN
  __asan_unpoison_memory_region(lo, size);
#else
  (void)lo;
  (void)size;
#endif
}

// TSan shims, beside the ASan ones: every fiber gets its own TSan context
// (created at materialization, destroyed when its stack is recycled), and
// every jump_fcontext names its target context immediately before it
// happens.  The switches synchronize, so a process's writes happen-before
// whatever runs after it on the same kernel, as they do in fact.
inline void* tsan_current_fiber() {
#ifdef ETHERGRID_TSAN
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}

inline void* tsan_create_fiber() {
#ifdef ETHERGRID_TSAN
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}

inline void tsan_switch_to_fiber(void* fiber) {
#ifdef ETHERGRID_TSAN
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

inline void tsan_destroy_fiber(void* fiber) {
#ifdef ETHERGRID_TSAN
  if (fiber != nullptr) __tsan_destroy_fiber(fiber);
#else
  (void)fiber;
#endif
}

std::size_t page_size() {
  static const std::size_t page = std::size_t(::sysconf(_SC_PAGESIZE));
  return page;
}

// Overflow canary.  The lowest kCanaryBytes of every stack are a band that
// must stay zero.  Fresh arena memory is zero and the band is never
// painted: painting would fault in every stack's bottom page (on
// perfbench's grid_sharded world, +42% peak RSS), while reading an
// untouched page maps the shared zero page and costs no memory.  An
// overflow that reaches the band leaves frame bytes in it, and the fiber's
// next switch-out aborts, naming the process, before anything else runs on
// a corrupted neighbour.  The trade-off: a single frame larger than the
// band can jump it, so the band guards C++ clients, and deeply nested ftsh
// scripts need a stack budget in the interpreter instead.  ASan builds
// also poison the band, so the check reads it unsanitized.
constexpr std::size_t kCanaryBytes = 64;

[[noreturn, gnu::noinline, gnu::cold]] void canary_tripped(
    const std::string& name) {
  std::fprintf(stderr, "sim kernel: fiber stack overflow in process '%s'\n",
               name.c_str());
  std::abort();
}

ETHERGRID_NO_ASAN inline void check_canary(const internal::FiberStack& stack,
                                           const std::string& name) {
  // The band holds whatever an overflowing frame stored there.
  typedef std::uint64_t __attribute__((__may_alias__)) Word;
  const auto* band = static_cast<const Word*>(stack.lo);
  Word bits = 0;
  for (std::size_t i = 0; i < kCanaryBytes / sizeof(bits); ++i) {
    bits |= band[i];
  }
  if (bits != 0) canary_tripped(name);
}

std::size_t resolve_stack_bytes(std::size_t requested) {
  std::size_t bytes = requested;
  if (bytes == 0) {
#ifdef ETHERGRID_ASAN
    bytes = std::size_t(1) << 20;  // ASan redzones inflate every frame
#else
    bytes = std::size_t(256) << 10;
#endif
  }
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

// One-shot bootstrap arguments for the first entry into a fresh
// context: lives on the jumper's stack for the duration of the jump;
// fcontext_entry copies the fields out before doing anything else.
struct FcxBootstrap {
  internal::fcontext_t* slot;  // where to park the jumper's continuation
  Process* self;
};

// The result of a body that let an exception other than Interrupted
// escape, told apart by rethrowing it; an escaped std:: or unknown
// exception is also stored in *error.  Out of line and cold: only error
// paths reach it, and run_body's frame, which sits under every fiber's
// frames, stays small (debug builds give each Status temporary a slot).
[[gnu::noinline, gnu::cold]] Status escaped_result(std::exception_ptr* error) {
  try {
    throw;
  } catch (const DeadlineExceeded& d) {
    return Status::timeout("deadline at " +
                           std::to_string(to_seconds(d.deadline)) +
                           "s escaped process body");
  } catch (const std::exception& e) {
    *error = std::current_exception();
    return Status::failure(std::string(e.what()));
  } catch (...) {
    *error = std::current_exception();
    return Status::failure("non-std exception escaped process body");
  }
}

}  // namespace

// Records the draining thread for check_owner (debug/audit builds; empty
// otherwise).
class Kernel::DrainScope {
 public:
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  explicit DrainScope(Kernel* kernel) : kernel_(kernel) {
    kernel->check_owner();
    kernel->drain_thread_.store(std::this_thread::get_id(),
                                std::memory_order_relaxed);
  }
  ~DrainScope() {
    kernel_->drain_thread_.store(std::thread::id(), std::memory_order_relaxed);
  }

 private:
  Kernel* kernel_;
#else
  explicit DrainScope(Kernel*) {}
#endif
};

// ---------------------------------------------------------------- Process

Process::Process(Kernel* kernel, std::uint64_t id, std::string name,
                 ProcessBody body)
    : kernel_(kernel),
      context_(kernel, this),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)) {}

Process::~Process() {
  // A finished process's TSan context was destroyed with its stack's
  // recycling; this only fires if the kernel died with the process
  // unfinished (which shutdown() asserts against).  The stack itself
  // belongs to the kernel's arenas.
  tsan_destroy_fiber(tsan_fiber_);
}

void Process::recycle() {
  assert(state_ == State::kFinished);
  assert(queue_entries_ == 0 && live_wakeups_ == 0);
  assert(!stack_.lo && "finished fiber's stack was not recycled");
  state_ = State::kNew;
  killed_ = false;
  kill_reason_.clear();
  // wake_token_ keeps counting across incarnations: entries stranded by a
  // past life must stay stale forever.
  deadlines_.clear();
  earliest_deadline_ = kNoDeadline;
  result_ = Status();
  // The done_ Event is reused un-destroyed: set() unlinked every
  // waiter when the old body finished, so re-latching is a plain store.
  assert(done_ && !done_->head_);
  done_->set_ = false;
  asan_fake_stack_ = nullptr;
  fiber_ctx_ = nullptr;
  pending_retire_ = false;
  name_.clear();
  body_ = nullptr;
}

bool Process::finished() const { return state_ == State::kFinished; }

Status Process::result() const { return result_; }

void Process::run_body() {
  state_ = State::kRunning;
  Status result;
  std::exception_ptr error;
  if (killed_) {
    result = Status::killed(kill_reason_);
  } else {
    try {
      body_(context_);
      result = Status::success();
    } catch (const Interrupted& i) {
      result = Status::killed(i.reason);
    } catch (...) {
      result = escaped_result(&error);
    }
  }

  result_ = std::move(result);
  if (error && !kernel_->shutting_down_) kernel_->pending_error_ = error;
  state_ = State::kFinished;
  --kernel_->live_processes_;
  // Retire every pending wakeup BEFORE anything can observe the finished
  // process.  The token bump makes "stale" a pure token comparison: a
  // finished process's entries mismatch just like a killed process's do,
  // so the queue never needs to read process state.  Skipping
  // this accounting would leave live-counted entries behind that the pop
  // path later subtracts from stale_wakeups_, wrapping the counter and
  // locking the queue into permanent O(n) compaction.
  kernel_->invalidate_wakeups(this);
  ++wake_token_;
  done_->set();
  body_ = nullptr;  // drop captured state while the result lives on
  kernel_->audit_accounting();
}

void Process::fcontext_entry(internal::transfer_t t) {
  // First words on the new stack.  Copy the bootstrap out of the jumper's
  // frame before anything else, then complete the ASan switch the jumper
  // began (learning the scheduler's stack bounds for the switch back --
  // under ASan fresh contexts are only ever entered from the scheduler;
  // direct fiber-to-fiber jumps are compiled out there).
  const FcxBootstrap boot = *static_cast<FcxBootstrap*>(t.data);
  Process* self = boot.self;
  Kernel* kernel = self->kernel_;
  asan_finish_switch(nullptr, &kernel->sched_stack_bottom_,
                     &kernel->sched_stack_size_);
  *boot.slot = t.fctx;  // park the jumper
  self->run_body();
  check_canary(self->stack_, self->name_);
  kernel->current_ = nullptr;
  kernel->last_finished_ = self;  // scheduler recycles stack + object
  // Final departure, always into the scheduler frame.  A null save handle
  // tells ASan to destroy this fiber's fake stack.  The dead continuation
  // this jump creates is parked into our own slot by the scheduler's
  // receive code and never jumped to again.
  kernel->jump_to_scheduler(self, nullptr);
  std::abort();  // a consumed continuation must never come back
}

// ------------------------------------------------------------------ Event

Event::~Event() {
  if (!head_) return;  // common case: nothing to detach
  Waiter* w = head_;
  while (w) {
    Waiter* next = w->next;
    // Unlinking marks the record safe: the waiter's cleanup (on kill or
    // deadline) sees linked == false and never touches this dead Event.
    w->linked = false;
    w->prev = w->next = nullptr;
    w = next;
  }
  head_ = tail_ = nullptr;
}

void Event::link(Waiter* w) {
  w->linked = true;
  w->next = nullptr;
  w->prev = tail_;
  if (tail_) {
    tail_->next = w;
  } else {
    head_ = w;
  }
  tail_ = w;
}

void Event::unlink(Waiter* w) {
  if (!w->linked) return;
  if (w->prev) {
    w->prev->next = w->next;
  } else {
    head_ = w->next;
  }
  if (w->next) {
    w->next->prev = w->prev;
  } else {
    tail_ = w->prev;
  }
  w->linked = false;
  w->prev = w->next = nullptr;
}

// ---------------------------------------------------------------- Context

namespace {

using DeadlineStack = std::vector<std::pair<std::uint64_t, TimePoint>>;

// Builds the exception for the *outermost* expired deadline (outer timeouts
// dominate inner scopes).
DeadlineExceeded outermost_expired(const DeadlineStack& deadlines,
                                   TimePoint now) {
  for (const auto& entry : deadlines) {
    if (entry.second <= now) {
      return DeadlineExceeded{entry.first, entry.second};
    }
  }
  assert(false && "no expired deadline");
  return DeadlineExceeded{0, now};
}

TimePoint earliest_deadline_of(const DeadlineStack& deadlines) {
  TimePoint best = kNoDeadline;
  for (const auto& entry : deadlines) best = std::min(best, entry.second);
  return best;
}

}  // namespace

void Context::sleep(Duration d) {
  Kernel& k = *kernel_;
  Process& p = *process_;
  if (p.killed_) throw Interrupted{p.kill_reason_};
  const TimePoint deadline = p.earliest_deadline_;
  if (deadline <= k.now_) {
    throw outermost_expired(p.deadlines_, k.now_);
  }
  if (d < Duration(0)) d = Duration(0);
  const TimePoint target = k.now_ + d;
  const TimePoint effective = std::min(target, deadline);
  k.schedule(effective, &p);
  k.yield_from_process(&p);
  if (p.killed_) throw Interrupted{p.kill_reason_};
  if (deadline < target && k.now_ >= deadline) {
    throw outermost_expired(p.deadlines_, k.now_);
  }
}

void Context::wait(Event& e) {
  Kernel& k = *kernel_;
  Process& p = *process_;
  if (p.killed_) throw Interrupted{p.kill_reason_};
  const TimePoint deadline = p.earliest_deadline_;
  if (deadline <= k.now_) {
    throw outermost_expired(p.deadlines_, k.now_);
  }
  if (e.set_) return;
  Event::Waiter waiter;
  waiter.process = &p;
  e.link(&waiter);
  if (deadline != kNoDeadline) k.schedule(deadline, &p);
  while (true) {
    k.yield_from_process(&p);
    if (p.killed_) {
      if (waiter.linked) e.unlink(&waiter);
      throw Interrupted{p.kill_reason_};
    }
    if (waiter.granted) return;
    if (k.now_ >= deadline) {
      if (waiter.linked) e.unlink(&waiter);
      throw outermost_expired(p.deadlines_, k.now_);
    }
    // Defensive: spurious resume; re-arm the deadline guard.
    if (deadline != kNoDeadline) k.schedule(deadline, &p);
  }
}

bool Context::wait_for(Event& e, Duration timeout) {
  Kernel& k = *kernel_;
  Process& p = *process_;
  if (p.killed_) throw Interrupted{p.kill_reason_};
  const TimePoint deadline = p.earliest_deadline_;
  if (deadline <= k.now_) {
    throw outermost_expired(p.deadlines_, k.now_);
  }
  if (e.set_) return true;
  if (timeout < Duration(0)) timeout = Duration(0);
  const TimePoint local = k.now_ + timeout;
  const TimePoint effective = std::min(local, deadline);
  Event::Waiter waiter;
  waiter.process = &p;
  e.link(&waiter);
  k.schedule(effective, &p);
  while (true) {
    k.yield_from_process(&p);
    if (p.killed_) {
      if (waiter.linked) e.unlink(&waiter);
      throw Interrupted{p.kill_reason_};
    }
    if (waiter.granted) return true;
    if (k.now_ >= deadline) {
      if (waiter.linked) e.unlink(&waiter);
      throw outermost_expired(p.deadlines_, k.now_);
    }
    if (k.now_ >= local) {
      if (waiter.linked) e.unlink(&waiter);
      return false;
    }
    k.schedule(effective, &p);
  }
}

std::uint64_t Context::push_deadline(TimePoint deadline) {
  const std::uint64_t token = ++kernel_->next_seq_;
  process_->deadlines_.emplace_back(token, deadline);
  process_->earliest_deadline_ =
      std::min(process_->earliest_deadline_, deadline);
  return token;
}

void Context::pop_deadline() {
  assert(!process_->deadlines_.empty());
  process_->deadlines_.pop_back();
  process_->earliest_deadline_ = earliest_deadline_of(process_->deadlines_);
}

TimePoint Context::earliest_deadline() const {
  return process_->earliest_deadline_;
}

void Context::check() {
  Process& p = *process_;
  if (p.killed_) throw Interrupted{p.kill_reason_};
  if (p.earliest_deadline_ <= kernel_->now_) {
    throw outermost_expired(p.deadlines_, kernel_->now_);
  }
}

ProcessHandle Context::spawn(std::string name, ProcessBody body) {
  return kernel_->spawn(std::move(name), std::move(body));
}

void Context::join(Process& p) { wait(*p.done_); }

void Context::kill(Process& p, std::string reason) {
  kernel_->kill(p, std::move(reason));
}

Rng& Context::rng() { return process_->rng_; }

void Context::log(LogLevel level, std::string message) {
  kernel_->logger_.log(level, now(), process_->name_, std::move(message));
}

DeadlineScope::DeadlineScope(Context& ctx, TimePoint deadline) : ctx_(ctx) {
  token_ = ctx_.push_deadline(deadline);
}

DeadlineScope::~DeadlineScope() { ctx_.pop_deadline(); }

// ----------------------------------------------------------------- Kernel

Kernel::Kernel(std::uint64_t seed, KernelOptions options)
    : fiber_stack_bytes_(resolve_stack_bytes(options.fiber_stack_bytes)),
      debug_kill_skips_invalidate_(options.debug_kill_skips_invalidate),
      rng_(seed),
      logger_(LogLevel::kWarn) {}

Kernel::~Kernel() { shutdown(); }

void Kernel::shutdown() {
  const DrainScope scope(this);
  shutting_down_ = true;
  propagate_errors_ = false;
  // Shutdown must drain unconditionally; a strategy (or its pending halt)
  // would stop the drain and strand unwinding processes.
  strategy_ = nullptr;
  strategy_halt_ = false;
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  last_delivered_time_ = TimePoint::min();
#endif
  // No fiber is materialized from here on: spawns are born killed and a
  // never-dispatched process finishes unrun.  Pooled stacks have no future,
  // and neither has an arena with no live fiber; the rest are unmapped by
  // recycle_stack as they drain.
  std::vector<internal::FiberStack>().swap(free_stacks_);
  arena_free_slots_ = 0;
  for (Arena& arena : arenas_) {
    if (arena.base != nullptr && arena.live == 0) unmap_arena(arena);
  }
  // Repeatedly kill everything alive and drain; unwinding bodies might
  // spawn (spawns during shutdown start pre-killed, see spawn()).
  for (int rounds = 0; live_processes_ > 0 && rounds < 64; ++rounds) {
    for (auto& p : processes_) {
      if (p->state_ != Process::State::kFinished) {
        kill(*p, "kernel shutdown");
      }
    }
    drain(TimePoint::max());
  }
  // Every fiber has finished, so every arena is unmapped.  (A release-build
  // process that survives the kill rounds keeps its arena mapped: its
  // parked frames are leaked with everything else they own.)
  assert(live_processes_ == 0 && "process survived kernel shutdown");
  // The full drain popped every queue entry, so every finished process
  // has retired; the pool has no future (spawns stay pre-killed).
  free_processes_.clear();
}

TimePoint Kernel::now() const { return now_; }

ProcessHandle Kernel::spawn(std::string name, ProcessBody body) {
  check_owner();
  // Lazy materialization: no stack and no context here -- those
  // happen at first dispatch (resume/pop), so spawning 10^6 clients costs
  // one pooled-or-heap Process object and a queue entry each, and a process
  // killed before it ever runs costs no stack at all.
  ProcessHandle p;
  if (!free_processes_.empty()) {
    p = std::move(free_processes_.back());
    free_processes_.pop_back();
    p->id_ = next_process_id_;
    p->name_ = std::move(name);
    p->body_ = std::move(body);
  } else {
    p = ProcessHandle(new Process(this, next_process_id_, std::move(name),
                                  std::move(body)));
    p->done_ = std::make_unique<Event>(*this);
  }
  ++next_process_id_;
  p->rng_ = rng_.stream(p->id_);
  if (shutting_down_) {
    p->killed_ = true;
    p->kill_reason_ = "kernel shutdown";
  }
  assert(processes_.size() < UINT32_MAX);
  p->pindex_ = static_cast<std::uint32_t>(processes_.size());
  processes_.push_back(p);
  ++live_processes_;
  schedule(now_, p.get());
  return p;
}

void Kernel::kill(Process& p, std::string reason) {
  check_owner();
  if (p.state_ == Process::State::kFinished || p.killed_) return;
  p.killed_ = true;
  p.kill_reason_ = std::move(reason);
  // Invalidate pending wakeups whether or not p is the running process.
  // The running process cannot have live entries today (its resume consumed
  // and invalidated them), but the bump keeps the invariant local --
  // "killed implies every prior entry is stale" -- instead of depending on
  // that global property, and the audit asserts the live count really was
  // zero.  A killed running process is NOT rescheduled: it unwinds at its
  // next wait primitive.
  if (!debug_kill_skips_invalidate_) {
    invalidate_wakeups(&p);
  }
  ++p.wake_token_;
  if (&p != current_) {
    schedule(now_, &p);
  }
  audit_accounting();
}

void Kernel::invalidate_wakeups(Process* p) {
  stale_wakeups_ += p->live_wakeups_;
  p->live_wakeups_ = 0;
}

void Kernel::finish_unrun(Process* p, Status result) {
  assert(p->state_ == Process::State::kNew && !p->stack_.lo);
  // Observably identical to run_body's killed-at-birth arm, without
  // ever materializing a stack or context.
  p->result_ = std::move(result);
  p->state_ = Process::State::kFinished;
  --live_processes_;
  invalidate_wakeups(p);
  ++p->wake_token_;
  p->done_->set();
  p->body_ = nullptr;
  audit_accounting();
  maybe_retire(p);
}

void Kernel::maybe_retire(Process* p) {
  assert(p->state_ == Process::State::kFinished);
  if (p->queue_entries_ != 0) {
    // Stranded (now stale) entries still point at p; retirement waits for
    // the last of them to drop out of the queue (pop skip, compaction, or
    // the final drain).
    p->pending_retire_ = true;
    return;
  }
  retire(p);
}

void Kernel::flush_retirable_slow() {
  while (!retirable_.empty()) {
    Process* p = retirable_.back();
    retirable_.pop_back();
    retire(p);
  }
}

void Kernel::retire(Process* p) {
  assert(p->state_ == Process::State::kFinished && p->queue_entries_ == 0);
  p->pending_retire_ = false;
  const std::size_t i = p->pindex_;
  assert(i < processes_.size() && processes_[i].get() == p);
  ProcessHandle h = std::move(processes_[i]);
  if (i + 1 != processes_.size()) {
    processes_[i] = std::move(processes_.back());
    processes_[i]->pindex_ = static_cast<std::uint32_t>(i);
  }
  processes_.pop_back();
  // Pool the object when the kernel held the only reference: the control
  // block, done_ Event, and string capacities all get another life, so
  // steady-state spawn/finish churn stops allocating.  A user-held handle
  // (use_count > 1) keeps the object alive outside the kernel instead --
  // results stay readable, and the object is simply not reused.
  if (!shutting_down_ && h.use_count() == 1 &&
      free_processes_.size() < kMaxPooledProcesses) {
    h->recycle();
    free_processes_.push_back(std::move(h));
  }
}

std::size_t Kernel::pooled_process_count() const {
  return free_processes_.size();
}

std::size_t Kernel::pooled_stack_count() const {
  return free_stacks_.size();
}

// The exact recount behind both the debug audit (abort on drift) and the
// public verify_queue_accounting() (Status on drift): the stale counter must
// equal the number of queue entries that can no longer fire, and each
// process's live_wakeups_ its token-matching entries.  One implementation so
// the model checker, the chaos tests, and the debug audit can never disagree
// about what "accounting is consistent" means.  O(queue) per call, so the
// inline audit wrapper (kernel.hpp) only calls it when assertions are on or
// ETHERGRID_QUEUE_AUDIT forces it.
Status Kernel::verify_queue_accounting() const {
  std::size_t stale = 0;
  std::size_t depth = 0;
  // Tallies indexed by pindex_: no hashing and one allocation each, so the
  // debug audit stays affordable at tens of thousands of live processes.
  std::vector<std::size_t> live_by_process(processes_.size());
  std::vector<std::size_t> total_by_process(processes_.size());
  const Process* retired = nullptr;
  const Process* finished_with_live = nullptr;
  auto count = [&](const internal::QueueEntry& e) {
    ++depth;
    // Retirement safety: every queue entry's process must still be in
    // processes_ (a retired process would be a dangling pointer).
    const std::size_t i = e.process->pindex_;
    if (i >= processes_.size() || processes_[i].get() != e.process) {
      retired = e.process;
      return;
    }
    ++total_by_process[i];
    if (entry_stale(e)) {
      ++stale;
      return;
    }
    ++live_by_process[i];
    // Token-uniform staleness invariant: finishing bumps the wake token, so
    // no entry may reach a finished process through a matching token.
    if (e.process->state_ == Process::State::kFinished) {
      finished_with_live = e.process;
    }
  };
  queue_.for_each(count);
  if (retired != nullptr) {
    return Status::failure(
        "queue accounting: entry references retired process " +
        std::to_string(retired->id_));
  }
  // Each process's queue_entries_ must match its actual entry total: that
  // counter is the only thing standing between retirement and the dangle.
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const Process& p = *processes_[i];
    if (total_by_process[i] != p.queue_entries_) {
      return Status::failure(
          "queue accounting: process " + std::to_string(p.id_) + " (" +
          p.name_ + ") queue_entries_=" + std::to_string(p.queue_entries_) +
          " actual=" + std::to_string(total_by_process[i]));
    }
  }
  if (finished_with_live != nullptr) {
    return Status::failure(
        "queue accounting: finished process " +
        std::to_string(finished_with_live->id_) + " has a live entry");
  }
  if (stale != stale_wakeups_) {
    return Status::failure(
        "queue accounting: stale_wakeups_=" + std::to_string(stale_wakeups_) +
        " actual=" + std::to_string(stale) +
        " depth=" + std::to_string(depth));
  }
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    const Process& p = *processes_[i];
    if (live_by_process[i] != p.live_wakeups_) {
      return Status::failure(
          "queue accounting: process " + std::to_string(p.id_) + " (" +
          p.name_ + ") live_wakeups_=" + std::to_string(p.live_wakeups_) +
          " actual=" + std::to_string(live_by_process[i]));
    }
  }
  return Status::success();
}

void Kernel::audit_accounting_slow() const {
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  // The self-test knob makes the counters drift on purpose; aborting here
  // would kill the run before the accounting invariant gets to observe it.
  if (debug_kill_skips_invalidate_) return;
  // Counter drift is persistent -- once stale_wakeups_ or a live_wakeups_
  // is wrong it stays wrong -- so on large queues a sampled recount still
  // catches it, just a bounded number of events later.  The period grows
  // with the recount's own cost, O(queue + processes), so the audit adds
  // O(1) amortized per call and debug runs stay linear in world size.
  // Small queues (every unit test) stay exact on every call.
  if (queue_.size() > 128) {
    const std::size_t period =
        std::max<std::size_t>(64, (queue_.size() + processes_.size()) / 8);
    if (++audit_tick_ < period) return;
    audit_tick_ = 0;
  }
  const Status status = verify_queue_accounting();
  if (!status.ok()) {
    std::fprintf(stderr, "queue audit: %s\n",
                 std::string(status.message()).c_str());
    std::abort();
  }
#endif
}

#ifdef ETHERGRID_QUEUE_AUDIT_ON
void Kernel::audit_delivery_order_slow(const internal::QueueEntry& e) {
  if (e.time < last_delivered_time_ ||
      (e.time == last_delivered_time_ && e.seq <= last_delivered_seq_)) {
    std::fprintf(stderr,
                 "queue audit: delivery (%lld us, seq %llu) does not follow "
                 "(%lld us, seq %llu)\n",
                 static_cast<long long>(e.time.time_since_epoch().count()),
                 static_cast<unsigned long long>(e.seq),
                 static_cast<long long>(
                     last_delivered_time_.time_since_epoch().count()),
                 static_cast<unsigned long long>(last_delivered_seq_));
    std::abort();
  }
  last_delivered_time_ = e.time;
  last_delivered_seq_ = e.seq;
}
#endif

void Kernel::compact_queue() {
  // The wheel calls the predicate exactly once per drop decision and drops
  // exactly the entries it accepts (event_queue.hpp documents the
  // contract), so it doubles as the per-process entry-count bookkeeper:
  // when a pending-retire process's last entry is compacted away it lands
  // on retirable_, to be flushed at the next pop site -- NOT here, because
  // compaction triggers from schedule, which runs under iteration
  // of processes_ (shutdown's kill loop).
  const auto stale = [this](const internal::QueueEntry& e) {
    if (!entry_stale(e)) return false;
    note_entry_discarded(e.process);
    return true;
  };
  // Incremental: sweep a few occupied slots per trigger.  Near-future
  // stale entries are already dropped when their slot drains; this
  // reclaims the far-future ones (abandoned long timeouts, killed
  // sleepers) without a stop-the-world rebuild.  Inline lambda, not a
  // function pointer, so the predicate inlines into the template.
  stale_wakeups_ -= std::min(queue_.compact_step(stale), stale_wakeups_);
}

void Kernel::check_owner_slow() const {
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  const std::thread::id owner = drain_thread_.load(std::memory_order_relaxed);
  const std::thread::id self = std::this_thread::get_id();
  if (owner == std::thread::id() || owner == self) return;
  std::cerr << "sim kernel: called from thread " << self << " while thread "
            << owner << " is draining it\n";
  std::abort();
#endif
}

inline void Kernel::check_fiber_thread(
    [[maybe_unused]] const Process* p) const {
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  if (p->fiber_thread_ == std::this_thread::get_id()) return;
  std::fprintf(stderr,
               "sim kernel: process '%s' resumed on a different OS thread "
               "than the one that materialized its fiber\n",
               p->name_.c_str());
  std::abort();
#endif
}

inline bool Kernel::jump_into(Process* next, internal::fcontext_t* park,
                              void** asan_fake_save) {
  FcxBootstrap boot{park, next};
  void* data = park;
  if (next->state_ == Process::State::kNew) {
    // Materialize.  No bootstrap entry: the fresh continuation enters
    // fcontext_entry on this very jump, the first dispatch itself.
    if (!obtain_stack(next)) return false;
    next->tsan_fiber_ = tsan_create_fiber();
#ifdef ETHERGRID_QUEUE_AUDIT_ON
    next->fiber_thread_ = std::this_thread::get_id();
#endif
    next->fiber_ctx_ = internal::make_fcontext(
        static_cast<char*>(next->stack_.lo) + next->stack_.size,
        next->stack_.size, &Process::fcontext_entry);
    data = &boot;
  } else {
    check_fiber_thread(next);
  }
  current_ = next;
  asan_start_switch(asan_fake_save, next->stack_.lo, next->stack_.size);
  tsan_switch_to_fiber(next->tsan_fiber_);
  const internal::transfer_t t =
      internal::jump_fcontext(next->fiber_ctx_, data);
  // Receive: park whoever jumped here (a yielding fiber's park, or a
  // finishing fiber's dead continuation) into the slot it named.
  *static_cast<internal::fcontext_t*>(t.data) = t.fctx;
  return true;
}

inline void Kernel::jump_to_scheduler(Process* p, void** asan_fake_save) {
  asan_start_switch(asan_fake_save, sched_stack_bottom_, sched_stack_size_);
  tsan_switch_to_fiber(sched_tsan_fiber_);
  const internal::transfer_t t =
      internal::jump_fcontext(sched_ctx_, &p->fiber_ctx_);
  *static_cast<internal::fcontext_t*>(t.data) = t.fctx;
}

bool Kernel::obtain_stack(Process* p) {
  assert(!shutting_down_ && "shutdown materializes no fiber");
  internal::FiberStack& stack = p->stack_;
  if (!free_stacks_.empty()) {
    stack = free_stacks_.back();
    free_stacks_.pop_back();
    // Poisoned wholesale while pooled; the canary band stays poisoned.
    asan_unpoison(static_cast<char*>(stack.lo) + kCanaryBytes,
                  stack.size - kCanaryBytes);
    ++arenas_[stack.arena].live;
    return true;
  }
  const std::size_t arena_bytes = fiber_stack_bytes_ * kArenaStacks;
  if (arena_free_slots_ == 0) {
    void* arena = ::mmap(nullptr, arena_bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (arena == MAP_FAILED) {
      const int err = errno;
      finish_unrun(p, Status::resource_exhausted(
                          std::string("fiber stack arena: mmap failed: ") +
                          std::strerror(err)));
      return false;
    }
    // Where transparent huge pages are "always", one 2 MiB page would back
    // the tops of ~8 stacks at once and keep them all resident.
    (void)::madvise(arena, arena_bytes, MADV_NOHUGEPAGE);  // advisory
    assert(arenas_.size() < UINT32_MAX);
    arenas_.push_back(Arena{arena, 0});
    arena_free_slots_ = kArenaStacks;
  }
  // Top slot first, so the newest stack overflows into uncarved memory.
  --arena_free_slots_;
  stack.lo = static_cast<char*>(arenas_.back().base) +
             arena_free_slots_ * fiber_stack_bytes_;
  stack.size = fiber_stack_bytes_;
  stack.arena = static_cast<std::uint32_t>(arenas_.size() - 1);
  ++arenas_.back().live;
  asan_poison(stack.lo, kCanaryBytes);
  return true;
}

void Kernel::recycle_stack(Process* p) {
  assert(p->stack_.lo);
  // Poisoned for the whole pooled interval: under ASan, any read through a
  // pointer that escaped the dead fiber's frames faults immediately
  // instead of silently observing the next tenant.  obtain_stack
  // unpoisons on the way out.
  asan_poison(p->stack_.lo, p->stack_.size);
  Arena& arena = arenas_[p->stack_.arena];
  assert(arena.live > 0);
  --arena.live;
  if (!shutting_down_) free_stacks_.push_back(p->stack_);
  p->stack_ = internal::FiberStack{};
  tsan_destroy_fiber(p->tsan_fiber_);
  p->tsan_fiber_ = nullptr;
  if (shutting_down_ && arena.live == 0) unmap_arena(arena);
}

void Kernel::unmap_arena(Arena& arena) {
  // Runs on the scheduler frame (or before shutdown's drain): no fiber of
  // this arena is live, and every finished one's TSan context is gone.
  // Stale ASan shadow must not outlive the mapping.
  const std::size_t arena_bytes = fiber_stack_bytes_ * kArenaStacks;
  asan_unpoison(arena.base, arena_bytes);
  ::munmap(arena.base, arena_bytes);
  arena.base = nullptr;
}

void Kernel::resume(Process* p) {
  // The strategy path delivers killed, never-dispatched processes through
  // the drain (the race it exists to explore); finish them here without
  // materializing anything.  The non-strategy pop already short-circuits
  // this case before it reaches resume.
  if (p->state_ == Process::State::kNew && p->killed_) {
    finish_unrun(p, Status::killed(p->kill_reason_));
    return;
  }
  if (!jump_into(p, &sched_ctx_, &sched_asan_fake_stack_)) return;
  asan_finish_switch(sched_asan_fake_stack_, nullptr, nullptr);
  // With direct switching the fiber that finished is not necessarily the
  // one this frame resumed (control may have chained through several
  // processes before coming back); the fiber drivers leave a note instead.
  if (last_finished_ != nullptr) {
    Process* finished = last_finished_;
    last_finished_ = nullptr;
    recycle_stack(finished);
    maybe_retire(finished);
  }
}

void Kernel::yield_from_process(Process* p) {
  check_canary(p->stack_, p->name_);
  // While control is away the thread belongs to the scheduler (possibly
  // resuming a *different* process before us); whoever resumes us sets
  // current_ back.
  current_ = nullptr;
  // Direct-switch fast path: pop the next runnable right here, on the
  // yielding process's stack, and transfer control without bouncing
  // through the scheduler frame.  The pop is the very call the scheduler
  // loop would have made (same queue, same limit), so delivery order --
  // and therefore the determinism contract -- is untouched; only the
  // route control takes differs.
  Process* next = pop_runnable(run_limit_);
  if (next == p) {
    // Self-wakeup (a lone sleeper, the ubiquitous benchmark and timer
    // pattern): nothing to switch to; just carry on.
    current_ = p;
    return;
  }
#ifndef ETHERGRID_ASAN
  // Direct switch, except under ASan, whose annotations thread the
  // *scheduler's* stack bounds through every hop (TSan follows direct hops
  // like any other switch).  A first-run fiber is materialized and entered
  // with the same jump; a killed kNew process -- strategy mode only --
  // still bounces, since the scheduler's resume finishes it stackless.
  if (next != nullptr &&
      (next->state_ != Process::State::kNew || !next->killed_)) {
    if (jump_into(next, &p->fiber_ctx_, &p->asan_fake_stack_)) return;
    next = nullptr;  // finished unrun, without a stack: the scheduler pops on
  }
#endif
  // Scheduler-only cases: nothing runnable (end of drain), a killed
  // never-dispatched strategy pick, a process left without a stack, or any
  // hop under ASan.  A popped entry was consumed, so park it for the
  // scheduler loop to resume.
  pending_next_ = next;
  jump_to_scheduler(p, &p->asan_fake_stack_);
  // Re-learn the scheduler's stack bounds on every entry: run() may be
  // driven from a different thread (hence stack) across calls.
  asan_finish_switch(p->asan_fake_stack_, &sched_stack_bottom_,
                     &sched_stack_size_);
}

inline Process* Kernel::pop_runnable(TimePoint limit) {
  if (strategy_ != nullptr) return pop_runnable_strategy(limit);
  internal::QueueEntry entry;
  while (true) {
    const bool got = raw_pop_due(limit, &entry);
    // Pop sites are the only place deferred retirements run: nothing here
    // is iterating processes_, so the swap-remove is safe.
    flush_retirable();
    if (!got) return nullptr;
    if (entry_stale(entry)) {
      assert((stale_wakeups_ > 0 || debug_kill_skips_invalidate_) &&
             "stale-wakeup underflow");
      if (stale_wakeups_ > 0) --stale_wakeups_;
      note_entry_discarded(entry.process);
      audit_accounting();
      continue;
    }
    audit_delivery_order(entry);
    --entry.process->live_wakeups_;
    // A live entry's process cannot be finished (token-uniform staleness),
    // so this note can never queue a retirement.
    note_entry_discarded(entry.process);
    now_ = std::max(now_, entry.time);
    invalidate_wakeups(entry.process);
    ++entry.process->wake_token_;  // consume: later same-token entries stale
    ++events_processed_;
    audit_accounting();
    Process* p = entry.process;
    if (p->state_ == Process::State::kNew && p->killed_) {
      // Killed before first dispatch: finish right here, no stack, no
      // thread.  The wake delivery above counted toward events_processed_
      // exactly as the old materialize-then-unwind route did.
      finish_unrun(p, Status::killed(p->kill_reason_));
      continue;
    }
    return p;
  }
}

bool Kernel::raw_pop_due(TimePoint limit, internal::QueueEntry* out) {
  // The wheel drops stale entries it meets while draining level-0 slots;
  // count them off (and their per-process entry totals -- the predicate
  // runs exactly once per dropped entry).  The entry it hands back may
  // still be stale (a cascade moves stale cells unread, and an entry can
  // go stale after reaching the ready run), so callers recheck.
  std::size_t dropped = 0;
  const bool got = queue_.pop_due(
      limit, out,
      [this](const internal::QueueEntry& e) {
        if (!entry_stale(e)) return false;
        note_entry_discarded(e.process);
        return true;
      },
      &dropped);
  assert((stale_wakeups_ >= dropped || debug_kill_skips_invalidate_) &&
         "stale-wakeup underflow");
  stale_wakeups_ -= std::min(dropped, stale_wakeups_);
  return got;
}

void Kernel::repush_entry(const internal::QueueEntry& entry) {
  // Raw re-insert: same (time, seq, token), no live_wakeups_ or
  // queue_entries_ adjustment (the strategy pop never decremented either
  // for a collected entry) and no compaction trigger.  The wheel routes
  // t <= cursor straight to its ready run and inserts the entry at its
  // (time, seq) place, so a pop-inspect-repush round trip is
  // order-neutral.
  queue_.push(entry);
}

Process* Kernel::pop_runnable_strategy(TimePoint limit) {
  if (strategy_halt_) return nullptr;
  // Deferred retirements run up front, before this pop round collects
  // entries or hands control to strategy callbacks (whose invariants
  // iterate processes_ -- they must not race a mid-round swap-remove).
  flush_retirable();
  // Phase 1: pull every entry due at the earliest due instant, dropping
  // stale ones with the usual accounting (collected entries keep their
  // per-process counts: the repush below puts them straight back).  The
  // survivors, in seq order, are the schedulable candidates.
  strategy_entries_.clear();
  internal::QueueEntry entry;
  while (true) {
    const TimePoint bound =
        strategy_entries_.empty() ? limit : strategy_entries_.front().time;
    if (!raw_pop_due(bound, &entry)) break;
    if (entry_stale(entry)) {
      assert((stale_wakeups_ > 0 || debug_kill_skips_invalidate_) &&
             "stale-wakeup underflow");
      if (stale_wakeups_ > 0) --stale_wakeups_;
      note_entry_discarded(entry.process);
      continue;
    }
    strategy_entries_.push_back(entry);
  }
  if (strategy_entries_.empty()) return nullptr;
  // Put everything back before consulting the strategy: choose() and
  // on_transition() may run invariants that inspect the queue (accounting
  // checks, digests), which must see a consistent structure.
  for (const internal::QueueEntry& e : strategy_entries_) {
    repush_entry(e);
  }
  audit_accounting();
  // The candidate set is the distinct processes, each represented by its
  // first (lowest-seq) entry; index 0 is the default deterministic choice.
  // A process can hold several due entries (sleep target plus an event
  // pulse); delivery of the first invalidates the rest, exactly as in
  // normal operation.
  std::size_t chosen = 0;
  if (strategy_entries_.size() > 1) {
    strategy_labels_.clear();
    for (std::size_t i = 0; i < strategy_entries_.size(); ++i) {
      Process* p = strategy_entries_[i].process;
      bool seen = false;
      for (std::size_t j = 0; j < i && !seen; ++j) {
        seen = strategy_entries_[j].process == p;
      }
      if (seen) continue;
      strategy_labels_.push_back(p->name_ + "#" + std::to_string(p->id_));
    }
    if (strategy_labels_.size() > 1) {
      const mc::ChoicePoint cp{mc::ChoicePoint::Kind::kSchedule, "sched",
                               strategy_labels_};
      // Invariant code may re-enter the kernel through const queries
      // (live_process_count, queue_depth, verify_queue_accounting): the
      // queue was restored above, so they see a consistent structure.
      chosen = strategy_->choose(cp);
      if (chosen >= strategy_labels_.size()) chosen = 0;
    }
  }
  // Map the chosen candidate index back to its first entry's seq.
  std::uint64_t want_seq = 0;
  {
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < strategy_entries_.size(); ++i) {
      Process* p = strategy_entries_[i].process;
      bool seen = false;
      for (std::size_t j = 0; j < i && !seen; ++j) {
        seen = strategy_entries_[j].process == p;
      }
      if (seen) continue;
      if (distinct == chosen) {
        want_seq = strategy_entries_[i].seq;
        break;
      }
      ++distinct;
    }
  }
  const TimePoint due = strategy_entries_.front().time;
  // Phase 2: pop until the chosen entry surfaces, holding skipped live
  // entries aside (re-pushing them immediately would hand them right back
  // to the next pop) and restoring them afterwards.
  strategy_entries_.clear();
  bool found = false;
  while (raw_pop_due(due, &entry)) {
    if (entry_stale(entry)) {
      if (stale_wakeups_ > 0) --stale_wakeups_;
      note_entry_discarded(entry.process);
      continue;
    }
    if (entry.seq == want_seq) {
      found = true;
      break;
    }
    strategy_entries_.push_back(entry);
  }
  for (const internal::QueueEntry& e : strategy_entries_) {
    repush_entry(e);
  }
  assert(found && "strategy candidate vanished between phases");
  if (!found) return nullptr;
  // Standard delivery bookkeeping, identical to the non-strategy path.
  --entry.process->live_wakeups_;
  note_entry_discarded(entry.process);
  now_ = std::max(now_, entry.time);
  invalidate_wakeups(entry.process);
  ++entry.process->wake_token_;
  ++events_processed_;
  audit_accounting();
  if (!strategy_->on_transition()) {
    // Sticky halt: the drain (and the yield-side fast path) stop delivering
    // until the strategy is replaced or removed.  The popped entry still
    // runs -- its process must unwind -- but nothing is scheduled after it.
    strategy_halt_ = true;
  }
  return entry.process;
}

void Kernel::drain(TimePoint limit) {
  run_limit_ = limit;  // the yield-side fast path pops against this
  // Like the ASan stack bounds, re-learned on every entry: the drain may be
  // driven from a different thread (or from another kernel's process).
  sched_tsan_fiber_ = tsan_current_fiber();
  while (true) {
    // A direct-switch bounce may have parked an already-popped process
    // here (first run: its fiber does not exist yet); it goes first --
    // its queue entry was already consumed.
    Process* p = pending_next_;
    if (p != nullptr) {
      pending_next_ = nullptr;
    } else {
      p = pop_runnable(limit);
      if (p == nullptr) break;
    }
    resume(p);
    if (pending_error_ && propagate_errors_) {
      std::exception_ptr error = pending_error_;
      pending_error_ = nullptr;
      std::rethrow_exception(error);
    }
  }
}

void Kernel::run() {
  const DrainScope scope(this);
  drain(TimePoint::max());
}

bool Kernel::run_until(TimePoint t) {
  const DrainScope scope(this);
  drain(t);
  now_ = std::max(now_, t);
  // Exact lazy-cancellation accounting makes "any real pending work?" pure
  // arithmetic -- no purge loop.  (Everything stale at or before t was
  // already dropped while draining; what remains stale is far-future and
  // incremental compaction's job.)
  assert((queue_.size() >= stale_wakeups_ || debug_kill_skips_invalidate_) &&
         "stale-wakeup underflow");
  return queue_.size() > stale_wakeups_;
}

std::size_t Kernel::live_process_count() const {
  return live_processes_;
}

std::vector<std::string> Kernel::live_process_names() const {
  std::vector<std::string> names;
  for (const ProcessHandle& p : processes_) {
    if (p->state_ != Process::State::kFinished) {
      names.push_back(p->name_ + "#" + std::to_string(p->id_));
    }
  }
  return names;
}

void Kernel::set_strategy(mc::Strategy* strategy) {
  check_owner();
  strategy_ = strategy;
  strategy_halt_ = false;
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  last_delivered_time_ = TimePoint::min();
#endif
}

mc::Strategy* Kernel::strategy() const {
  return strategy_;
}

std::uint64_t Kernel::state_digest() const {
  // FNV-1a for the ordered part (clock), plus an order-insensitive sum of
  // per-item hashes for the sets (queue iteration order differs across
  // compaction and cascade points for identical states).
  const auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull;
    h *= 0x100000001b3ull;
    return h;
  };
  std::uint64_t digest = 0xcbf29ce484222325ull;
  digest = mix(digest, static_cast<std::uint64_t>(
                           now_.time_since_epoch().count()));
  std::uint64_t processes_sum = 0;
  for (const ProcessHandle& p : processes_) {
    // Finished processes are not state: they can take no further action,
    // and exactly when one leaves processes_ (retirement) depends on queue
    // internals -- which pop or compaction dropped its last stale entry --
    // that two equivalent interleavings legitimately disagree on.
    if (p->state_ == Process::State::kFinished) continue;
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = mix(h, p->id_);
    h = mix(h, static_cast<std::uint64_t>(p->state_));
    h = mix(h, p->killed_ ? 1 : 0);
    processes_sum += h;
  }
  digest = mix(digest, processes_sum);
  std::uint64_t queue_sum = 0;
  auto add_entry = [&](const internal::QueueEntry& e) {
    if (entry_stale(e)) return;  // stale entries are not state
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = mix(h, static_cast<std::uint64_t>(e.time.time_since_epoch().count()));
    h = mix(h, e.process->id_);
    queue_sum += h;
  };
  queue_.for_each(add_entry);
  digest = mix(digest, queue_sum);
  return digest;
}

std::size_t Kernel::queue_depth() const { return queue_.size(); }

TimePoint Kernel::next_live_event_time() const {
  const TimePoint min = queue_.min_live(
      [](const internal::QueueEntry& e) { return entry_stale(e); });
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  // The full scan is the oracle: the sharded window schedule is only
  // partition-independent if this minimum is exact.
  TimePoint scanned = TimePoint::max();
  queue_.for_each([&](const internal::QueueEntry& e) {
    if (!entry_stale(e) && e.time < scanned) scanned = e.time;
  });
  if (min != scanned) {
    std::fprintf(stderr,
                 "queue audit: live minimum %lld us, full scan %lld us\n",
                 static_cast<long long>(min.time_since_epoch().count()),
                 static_cast<long long>(scanned.time_since_epoch().count()));
    std::abort();
  }
#endif
  return min;
}

std::uint64_t Kernel::events_processed() const {
  return events_processed_;
}

}  // namespace ethergrid::sim
