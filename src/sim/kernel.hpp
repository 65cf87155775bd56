// Discrete-event simulation kernel with cooperative processes.
//
// Each sim::Process runs ordinary blocking C++ on a stackful fiber whose
// stack is carved from a per-kernel arena (one mmap per kArenaStacks
// stacks) with a zero canary band at its low end.  Materialization is lazy:
// spawn() allocates no stack and builds no context -- the fiber comes into
// existence when the process is first dispatched, so a world of 10^6
// mostly-idle clients holds stacks only for its live working set, and a
// process killed before its first dispatch never touches a stack at all.
// Switching is a hand-rolled fcontext-style assembly switch (callee-saved
// registers only; see fcontext.hpp), and every virtual-time event is at
// most two such switches on the scheduler's own OS thread: no syscall, no
// futex, no kernel scheduler round trip.
// Finished processes return their Process object and stack to per-kernel
// free lists, so spawn/finish churn allocates nothing in steady state.
//
// Exactly one process (or the kernel itself) executes at any instant.  The
// result is a fully deterministic simulation -- same seed, same event
// order, same results, byte for byte (tests/sim/backend_equivalence_test.cpp
// pins hashes of whole runs).  Every switch is annotated for
// AddressSanitizer and ThreadSanitizer, so both sanitizers check the fiber
// path itself.  The event queue is a hierarchical timer wheel
// (event_queue.hpp); debug builds check that it delivers in strict
// (time, seq) order.
//
// Time is virtual: it advances only when the kernel pops the next event.
// All waiting flows through Context primitives (sleep / wait / join /
// resource acquire), which is what makes the paper's "forcible termination"
// semantics exact: a deadline or kill wakes the process inside the
// primitive, which unwinds the stack with DeadlineExceeded or Interrupted.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mc/strategy.hpp"
#include "sim/event_queue.hpp"
#include "sim/fcontext.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/time.hpp"

// Queue-accounting audits run whenever assertions are on, and can be forced
// into release builds (the stress probes do) by defining
// ETHERGRID_QUEUE_AUDIT.  Evaluated here so the inline hot paths below can
// compile the audit hook away entirely.
#if !defined(NDEBUG) || defined(ETHERGRID_QUEUE_AUDIT)
#define ETHERGRID_QUEUE_AUDIT_ON 1
#endif

namespace ethergrid::sim {

class Kernel;
class Process;
class Context;
class Event;

using ProcessHandle = std::shared_ptr<Process>;
using ProcessBody = std::function<void(Context&)>;

// Thrown inside a process when it has been killed.  Must be allowed to
// propagate out of the process body; the kernel absorbs it.  Primitives
// re-throw it on every subsequent wait, so swallowing it only delays death.
struct Interrupted {
  std::string reason;
};

// Thrown inside a process when a pushed deadline expires during (or is
// already expired at entry to) a wait primitive.  `token` identifies the
// *outermost* expired deadline so nested try-scopes can tell whose timeout
// fired: a scope catching a token that is not its own must rethrow.
struct DeadlineExceeded {
  std::uint64_t token;
  TimePoint deadline;
};

// Infinite deadline sentinel.
inline constexpr TimePoint kNoDeadline = TimePoint::max();

struct KernelOptions {
  // Fiber stack bytes, the canary band included.  0 means the default:
  // 256 KiB, or 1 MiB under AddressSanitizer, whose redzones inflate
  // frames.  Rounded up to the page size.
  std::size_t fiber_stack_bytes = 0;
  // Model-checker self-test ONLY: reintroduces the pre-PR-6 stale-accounting
  // underflow by making kill skip the invalidate step (the token still
  // bumps, so entries go stale without being counted).  The queue-accounting
  // invariant must then observe the drift -- tests/mc uses this to prove the
  // checker catches a real, historical bug.  Also suppresses the debug
  // audit's abort (the drift is the point) and the underflow asserts.
  bool debug_kill_skips_invalidate = false;
};

namespace internal {

// QueueEntry / QueueEntryEarlier and the timer wheel itself live in
// event_queue.hpp.  Entries are not removed from the queue on
// cancellation; instead each process carries a wake token and stale entries
// (token mismatch) are skipped on pop.  The kernel counts how many entries
// can no longer fire and compacts when they outnumber live ones, so long
// runs with heavy wait_for timeout churn stay O(live) in memory.

// A recyclable fiber stack: one slot of a kernel's stack arena.  Stacks
// grow down, so the canary band is the slot's lowest kCanaryBytes.
struct FiberStack {
  void* lo = nullptr;  // lowest byte, the canary band's start
  std::size_t size = 0;
  std::uint32_t arena = 0;  // index of the owning arena in Kernel::arenas_
};

}  // namespace internal

// The face of the kernel inside a process body.  One Context per process,
// stored in the Process itself (so a body's now() and sleep() read it from
// the object a dispatch has just touched, not from the far end of the
// fiber's stack); valid for the lifetime of the body invocation.
class Context {
 public:
  TimePoint now() const;

  // Blocks for d of virtual time.  Throws Interrupted if killed, or
  // DeadlineExceeded if an enclosing deadline would expire strictly before
  // the sleep completes (the process wakes exactly at the deadline).
  void sleep(Duration d);

  // Yields to other events scheduled at the current instant.
  void yield() { sleep(Duration(0)); }

  // Blocks until e is set.  Deadline- and kill-aware like sleep.
  void wait(Event& e);

  // Like wait but bounded: returns true if the event fired, false if the
  // local timeout elapsed first.  An enclosing *deadline* still throws.
  bool wait_for(Event& e, Duration timeout);

  // Deadline stack.  A wait primitive that would cross the earliest pushed
  // deadline wakes exactly at it and throws DeadlineExceeded carrying the
  // token of the outermost expired deadline.  Prefer DeadlineScope.
  std::uint64_t push_deadline(TimePoint deadline);
  void pop_deadline();

  // Earliest deadline on the stack, or kNoDeadline.
  TimePoint earliest_deadline() const;

  // Throws immediately if killed or if a pushed deadline has already
  // expired.  Wait primitives call this on entry; long CPU-only loops in
  // user code may call it to stay responsive to cancellation.
  void check();

  // Spawns a sibling process starting at the current instant.
  ProcessHandle spawn(std::string name, ProcessBody body);

  // Blocks until p finishes (deadline/kill aware).  Immediate if finished.
  void join(Process& p);
  void join(const ProcessHandle& p) { join(*p); }

  // Requests termination of p.  If p is blocked it wakes and unwinds now;
  // if p is running it unwinds at its next wait.  Safe on self.
  void kill(Process& p, std::string reason = "killed");
  void kill(const ProcessHandle& p, std::string reason = "killed") {
    kill(*p, std::move(reason));
  }

  Kernel& kernel() { return *kernel_; }
  Process& process() { return *process_; }

  // This process's private deterministic RNG stream.
  Rng& rng();

  void log(LogLevel level, std::string message);

 private:
  friend class Kernel;
  friend class Process;
  Context(Kernel* kernel, Process* process)
      : kernel_(kernel), process_(process) {}

  Kernel* kernel_;
  Process* process_;
};

// A simulated process.  Created via Kernel::spawn / Context::spawn.  The
// handle outlives completion so results remain readable.
class Process : public std::enable_shared_from_this<Process> {
 public:
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }

  bool finished() const;

  // How the body ended: ok() for normal return, kKilled for interruption,
  // kFailure carrying the what() of an escaped exception.
  Status result() const;

 private:
  friend class Kernel;
  friend class Context;
  friend class Event;

  Process(Kernel* kernel, std::uint64_t id, std::string name,
          ProcessBody body);

  enum class State : std::uint8_t { kNew, kBlocked, kRunning, kFinished };

  // Body driver: a fresh context's entry point.  Parks the jumper's
  // continuation, runs the body immediately (entry IS the first dispatch),
  // and never returns (final jump_fcontext back to the scheduler frame).
  [[noreturn]] static void fcontext_entry(internal::transfer_t t);
  // Runs the body (unless killed at birth) and records the result.
  void run_body();
  // Resets a finished process for the kernel's free list (pooling).  The
  // shared_from_this control block, the done_ Event allocation, and string
  // capacities survive; identity (id, name, body, rng) is assigned by the
  // next spawn.  Requires: finished, no queue entries.
  void recycle();

  // The fields a dispatch touches come first -- the switch, the wake
  // bookkeeping, the Context a body reads, the cached deadline -- so an
  // event reads one or two cache lines of Process, not fields scattered
  // across it.  Everything here belongs to the thread draining the kernel.
  Kernel* kernel_;
  // The suspended continuation (its register record lives at the parked
  // stack's top); meaningful only between materialization (first
  // dispatch) and finish.
  internal::fcontext_t fiber_ctx_ = nullptr;
  std::uint64_t wake_token_ = 0;
  std::uint64_t live_wakeups_ = 0;  // queue entries carrying wake_token_
  internal::FiberStack stack_;      // empty until first dispatch
  // ALL queue entries referencing this process, stale included.  A finished
  // process may only be retired (removed from Kernel::processes_ and pooled
  // or destroyed) once this reaches zero: entries hold a raw Process*, and
  // a stale entry can outlive the finish that stranded it.
  std::uint32_t queue_entries_ = 0;
  State state_ = State::kNew;
  bool killed_ = false;
  bool pending_retire_ = false;     // finished with queue entries still out
  Context context_;                 // the body's; see Kernel::current_context
  // The earliest of deadlines_, cached on push and pop: every wait
  // primitive compares against it.
  TimePoint earliest_deadline_ = kNoDeadline;

  std::uint64_t id_;   // non-const: reassigned when pooled (Kernel::spawn)
  std::string name_;
  ProcessBody body_;
  std::string kill_reason_;
  std::uint32_t pindex_ = 0;        // index in Kernel::processes_
  std::vector<std::pair<std::uint64_t, TimePoint>> deadlines_;  // token, when
  Status result_;
  std::unique_ptr<Event> done_;  // set when the body finishes
  Rng rng_;

#ifdef ETHERGRID_QUEUE_AUDIT_ON
  // The OS thread that materialized the fiber; every later resume must
  // happen on it (Kernel::check_fiber_thread).  Debug/audit only.
  std::thread::id fiber_thread_;
#endif
  void* asan_fake_stack_ = nullptr;  // this fiber's ASan fake-stack handle
  void* tsan_fiber_ = nullptr;       // this fiber's TSan context
};

// A broadcast condition: processes wait, someone sets.  Once set it stays
// set (wait returns immediately) until reset().
class Event {
 public:
  explicit Event(Kernel& kernel) : kernel_(&kernel) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  // Destroying an Event with processes still blocked on it unlinks their
  // wait records so their eventual cleanup (on kill or deadline) does not
  // touch the dead Event.  This is a safety net -- prefer Kernel::shutdown()
  // before tearing down objects that processes wait on.
  ~Event();

  // Wakes all current waiters and latches.
  void set();
  // Unlatches; future waits block again.
  void reset();
  // Wakes all current waiters without latching.
  void pulse();

  bool is_set() const;

  // Internal wait registration record; public only so that Context's
  // out-of-line helpers can name the type.  Lives on the waiting process's
  // stack and links into the Event's intrusive FIFO list -- registering a
  // waiter never allocates, which keeps the kernel's resume path
  // allocation-free.
  struct Waiter {
    Process* process = nullptr;
    bool granted = false;
    bool linked = false;  // still on the event's list (safe to unlink)
    Waiter* prev = nullptr;
    Waiter* next = nullptr;
  };

 private:
  friend class Context;
  friend class Process;
  friend class Kernel;  // finish_unrun signals done_

  void link(Waiter* w);
  void unlink(Waiter* w);

  Kernel* kernel_;
  bool set_ = false;
  Waiter* head_ = nullptr;      // FIFO order
  Waiter* tail_ = nullptr;
};

// RAII deadline scope; see Context::push_deadline.
class DeadlineScope {
 public:
  DeadlineScope(Context& ctx, TimePoint deadline);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  std::uint64_t token() const { return token_; }

 private:
  Context& ctx_;
  std::uint64_t token_;
};

// The simulation kernel: virtual clock + event queue + process scheduler.
// Not reentrant: run()/run_until() must be called from outside any process
// of this kernel (normally the test or bench main thread; a process of
// another kernel may drive it, see "Ownership" below).
//
// OWNERSHIP RULE: one OS thread owns a kernel at a time, and nothing in it
// is locked.  While run(), run_until() or shutdown() drains the kernel, only
// the draining thread -- the scheduler and the processes it runs, which
// share that thread -- may touch the kernel or any object bound to it
// (Events, Resources, Stores, grid substrates).  A kernel nobody is
// draining may be used from any thread, provided the hand-off itself is
// ordered (a join, a barrier).  Debug and audit builds check the rule: a
// spawn, kill, run, run_until, shutdown, set_strategy, Event::set, pulse or
// reset from another thread while a drain runs aborts, naming both
// threads.  Release builds carry no check.
//
// LIFETIME RULE: everything a process touches (Events, Resources, grid
// substrates, stats sinks) must stay alive until that process finishes.
// When abandoning a simulation with processes still live (e.g. after
// run_until of a measurement window), call shutdown() BEFORE destroying
// those objects; the Kernel's own destructor runs it too, but by then
// objects declared after the Kernel are already gone.
class Kernel {
 public:
  explicit Kernel(std::uint64_t seed = 1, KernelOptions options = {});
  ~Kernel();

  // Kills every live process, drains their unwinding, and unmaps every
  // fiber-stack arena, each as soon as its last fiber has unwound.  After
  // shutdown the kernel accepts no further work (spawns create
  // already-killed processes).  Idempotent.
  void shutdown();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Pool observability (tests/sim/lazy_lifecycle_test.cpp pins reuse).
  std::size_t pooled_process_count() const;
  std::size_t pooled_stack_count() const;

  TimePoint now() const;

  ProcessHandle spawn(std::string name, ProcessBody body);

  void kill(Process& p, std::string reason = "killed");

  // Runs until the event queue is empty (all processes finished or blocked
  // with no pending wakeups).
  void run();

  // Processes every event at time <= t, then advances the clock to t.
  // Returns true if events remain in the queue.
  bool run_until(TimePoint t);
  bool run_for(Duration d) { return run_until(now() + d); }

  // Number of processes that have not finished.
  std::size_t live_process_count() const;

  // Names of processes that have not finished, as "name#id" (the same labels
  // the mc::Strategy seam surfaces).  Diagnostic: deadlock reports.
  std::vector<std::string> live_process_names() const;

  // Installs (or, with nullptr, removes) the model-checking decision source.
  // While installed, same-instant scheduling goes through strategy->choose()
  // and every delivered wakeup calls strategy->on_transition().  The
  // strategy must outlive the kernel or be removed first; removal also
  // clears a pending on_transition()==false halt so shutdown can drain.
  void set_strategy(mc::Strategy* strategy);
  mc::Strategy* strategy() const;

  // Exact, unsampled recount of the lazy-cancellation bookkeeping:
  // stale_wakeups_ must equal the number of queue entries that can no longer
  // fire and each process's live_wakeups_ its token-matching entries.
  // Returns failure (with a diagnostic message) instead of aborting, so the
  // model checker and the chaos tests can assert the same check the debug
  // audit enforces.  O(queue depth + processes); callable from invariant
  // callbacks during a drain.
  Status verify_queue_accounting() const;

  // Order-insensitive FNV-style hash of the kernel-visible state: virtual
  // time, per-process (id, state, killed) and pending live wakeups
  // (time, process).  Sequence numbers are deliberately excluded -- two
  // interleavings that converge to the same logical state hash equal even
  // though their seq counters differ.  Used by the model checker to prune
  // revisited states; collisions only cost soundness of the *pruning*, so
  // exhaustive runs disable it.
  std::uint64_t state_digest() const;

  // Pending wakeup entries, stale ones included (observability: the stale
  // compaction regression test and bench reporting read this).
  std::size_t queue_depth() const;

  // Exact earliest time at which a pending LIVE wakeup can fire, or
  // TimePoint::max() when none is pending.  Walks the wheel's occupancy
  // bitmaps (TimerWheel::min_live): O(levels + entries in the slots up to
  // the first live one), not O(queue depth), and exact however many stale
  // entries front-run the live minimum.  Debug and audit builds check
  // every answer against a full scan.  The sharded kernel's conservative
  // window synchronization (shard.hpp) computes its lookahead horizon from
  // this; exactness matters there -- a cheaper lower bound would vary with
  // how entries were partitioned across shards and make the window
  // schedule (and thus same-instant delivery order) depend on the shard
  // count.
  TimePoint next_live_event_time() const;

  // Wakeups actually delivered to processes since construction: the
  // virtual-time event count benches report as events/sec.
  std::uint64_t events_processed() const;

  // Root RNG for the experiment; derive per-entity streams from it.
  Rng& rng() { return rng_; }

  Logger& logger() { return logger_; }

  // When true (default), an exception escaping a process body -- other than
  // Interrupted -- is rethrown out of run()/run_until().  The process's
  // result() records it either way.
  void set_propagate_errors(bool on) { propagate_errors_ = on; }

  // The Context of the process currently executing inside this kernel, or
  // nullptr when the scheduler (or no simulation at all) is running.  This
  // is how ambient-context consumers (shell::SimExecutor) find "the current
  // simulated process": a thread_local cannot express it, because every
  // process shares the scheduler's OS thread.
  Context* current_context() const {
    return current_ != nullptr && current_->state_ == Process::State::kRunning
               ? &current_->context_
               : nullptr;
  }

 private:
  friend class Process;
  friend class Context;
  friend class Event;

  // Marks the calling thread as the one draining this kernel for the
  // scope's lifetime (run / run_until / shutdown).  Empty in release builds.
  class DrainScope;

  // Debug/audit builds: aborts, naming both threads, when another thread is
  // draining this kernel (see "Ownership" above).  Release builds compile
  // it to nothing, so the inlined primitives carry no residual call.
  void check_owner() const {
#ifdef ETHERGRID_QUEUE_AUDIT_ON
    check_owner_slow();
#endif
  }
  void check_owner_slow() const;

  // Defined inline below the class: it sits on the wake path of every
  // primitive (sleep targets, event pulses, deadline arms).
  void schedule(TimePoint t, Process* p);

  // Reclaims queue entries that can no longer fire (stale token).  Called
  // when stale entries outnumber live ones: sweeps a bounded number of
  // occupied wheel slots (incremental, bitmap-guided round-robin).  Pop
  // order is unchanged -- stale entries were skipped anyway.
  void compact_queue();

  // True iff e can no longer fire.  Token-uniform: finish and kill both
  // bump the wake token, so this is a single comparison and the queue
  // never reads process state.
  static bool entry_stale(const internal::QueueEntry& e);

  // Note that every entry carrying p's current token just went stale.
  void invalidate_wakeups(Process* p);

  // Debug/audit builds: recount stale entries and per-process live counts
  // and abort on any drift from stale_wakeups_ / live_wakeups_.  No-op in
  // release builds -- the inline wrapper compiles to nothing, so inlined
  // hot paths carry no residual call.  Call only at consistency points
  // (never between an invalidate and its paired token bump).
  void audit_accounting() const {
#ifdef ETHERGRID_QUEUE_AUDIT_ON
    audit_accounting_slow();
#endif
  }
  void audit_accounting_slow() const;

  // Debug/audit builds: with no strategy installed, every delivered entry's
  // (time, seq) must be strictly greater than the previous delivery's --
  // the total order the determinism contract rests on, and exactly what a
  // binary heap over all entries would produce.  Compiles to nothing in
  // release builds.
  void audit_delivery_order(const internal::QueueEntry& e) {
#ifdef ETHERGRID_QUEUE_AUDIT_ON
    audit_delivery_order_slow(e);
#else
    (void)e;
#endif
  }
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  void audit_delivery_order_slow(const internal::QueueEntry& e);
#endif

  // Hands control to p and returns once control is back in the scheduler
  // frame (p yielded to it, finished, or handed it on).
  void resume(Process* p);

  // Called from inside a process: gives control away -- directly to the
  // next runnable process, or to the scheduler frame -- and returns when p
  // is resumed.
  void yield_from_process(Process* p);

  // Finishes a never-dispatched process without running its body: killed
  // at birth, or left without a stack when no arena could be mapped.  The
  // observable sequence (result, wake invalidation, done signal) is
  // identical to run_body's killed-at-birth arm.
  void finish_unrun(Process* p, Status result);

  // Retirement: a finished process leaves processes_ once no queue entry
  // references it, and its object goes to the pool when the kernel holds
  // the only handle.  maybe_retire defers (pending_retire_) while
  // entries are still out; note_entry_discarded queues the process
  // for retirement when the last one drains.  flush_retirable runs
  // ONLY at queue-pop sites -- never from kill/schedule -- because retiring
  // swap-removes from processes_, which shutdown's kill loop and the
  // invariant callbacks iterate.
  void maybe_retire(Process* p);
  void retire(Process* p);
  void note_entry_discarded(Process* p) {
    assert(p->queue_entries_ > 0);
    if (--p->queue_entries_ == 0 && p->pending_retire_) {
      retirable_.push_back(p);
    }
  }
  void flush_retirable() {
    if (!retirable_.empty()) {
      flush_retirable_slow();
    }
  }
  void flush_retirable_slow();

  // Pops entries until a valid one at time <= limit; nullptr when none.
  // Forced inline into its two callers (the drain loop and the yield-side
  // direct-switch fast path, both in kernel.cpp): it runs once per
  // simulated event and the call frame is measurable there.
#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  inline Process*
  pop_runnable(TimePoint limit);

  // Strategy-mode pop (out of line; this path trades speed for control):
  // surfaces every distinct process runnable at the earliest due instant as
  // a ChoicePoint, delivers the one the strategy picks, then runs the
  // on_transition() hook.  Dispatched from pop_runnable when a
  // strategy is installed.
  Process* pop_runnable_strategy(TimePoint limit);

  // Raw pop of the next due entry (stale or live) at time <= limit, with
  // the wheel's dropped-stale accounting applied.
  bool raw_pop_due(TimePoint limit, internal::QueueEntry* out);

  // Re-inserts an entry popped by the strategy path, preserving its
  // original (time, seq, token) so delivery order is untouched.
  void repush_entry(const internal::QueueEntry& entry);

  void drain(TimePoint limit);

  // Fiber plumbing.
  // Switches into `next` (materializing its fiber on first dispatch) and
  // parks the jumper's continuation in *park; returns true when control
  // comes back.  Returns false at once, without switching, when `next`
  // needed a stack and no arena could be mapped: `next` is then finished
  // (finish_unrun, resource_exhausted).  asan_fake_save is the jumper's
  // ASan fake-stack handle.
  [[nodiscard]] bool jump_into(Process* next, internal::fcontext_t* park,
                               void** asan_fake_save);
  // Parks p and switches into the scheduler frame; returns when p is
  // resumed.  A null asan_fake_save marks p's final departure.
  void jump_to_scheduler(Process* p, void** asan_fake_save);
  // Debug/audit builds: aborts, naming the process, unless the calling
  // thread is the one that materialized p's fiber (shard.hpp, "Thread
  // affinity").  Release builds compile it away.
  void check_fiber_thread(const Process* p) const;
  // Gives p a pooled stack or the next arena slot.  When a fresh arena
  // cannot be mapped, finishes p unrun (resource_exhausted) and returns
  // false.
  bool obtain_stack(Process* p);
  // Takes a finished fiber's stack back: to the pool while the kernel runs,
  // or, once shutdown has begun, toward its arena's unmapping.
  void recycle_stack(Process* p);

  const std::size_t fiber_stack_bytes_;
  const bool debug_kill_skips_invalidate_;

  Process* current_ = nullptr;  // whose turn it is; nullptr => kernel's
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  // The thread inside run / run_until / shutdown, or a default id when no
  // drain is active (check_owner).  Atomic because the check reads it from
  // the very threads that break the rule.
  std::atomic<std::thread::id> drain_thread_{};
#endif

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_process_id_ = 1;
  std::uint64_t events_processed_ = 0;
  internal::TimerWheel queue_;  // see event_queue.hpp
  std::size_t stale_wakeups_ = 0;  // queue entries that can no longer fire
#ifdef ETHERGRID_QUEUE_AUDIT_ON
  mutable std::uint64_t audit_tick_ = 0;  // sampling counter, audits only
  // (time, seq) of the last delivery the order audit saw; TimePoint::min()
  // after a strategy change, since a strategy may reorder same-instant
  // peers and the next default-order delivery can sort before its pick.
  TimePoint last_delivered_time_ = TimePoint::min();
  std::uint64_t last_delivered_seq_ = 0;
#endif
  // Live and finished-but-unretired processes; pindex_ back-references keep
  // retirement's swap-remove O(1).  Fully-drained kernels end empty.
  std::vector<ProcessHandle> processes_;
  std::size_t live_processes_ = 0;
  // Process pool: retired objects whose only handle was the kernel's,
  // recycled by spawn.  Bounded so a burst does not pin memory forever.
  static constexpr std::size_t kMaxPooledProcesses = 1024;
  std::vector<ProcessHandle> free_processes_;
  // Processes whose last queue entry drained while pending_retire_; emptied
  // by flush_retirable at the pop sites.
  std::vector<Process*> retirable_;
  // Model-checking seam (null in normal operation; the strategy branch in
  // pop_runnable is a single predicted-not-taken test).
  mc::Strategy* strategy_ = nullptr;
  bool strategy_halt_ = false;  // on_transition() returned false; stop popping
  // Scratch for the strategy pop (member, not stack, so repeated choice
  // points reuse capacity instead of reallocating every event).
  std::vector<internal::QueueEntry> strategy_entries_;
  std::vector<std::string> strategy_labels_;
  bool shutting_down_ = false;
  bool propagate_errors_ = true;
  std::exception_ptr pending_error_;

  // Direct-switch scheduling.  A yielding process pops the
  // next runnable itself and jumps straight into its fiber -- or
  // simply returns, when the next wakeup is its own -- cutting the
  // scheduler-frame bounce (a full switch pair) out of every steady-state
  // event.  The scheduler frame is entered only for cases it alone can
  // handle, via pending_next_: end-of-drain, killed-at-birth strategy
  // picks, and (under ASan) every hop.
  TimePoint run_limit_ = TimePoint::max();  // active drain's limit
  Process* pending_next_ = nullptr;  // popped, awaiting a scheduler resume
  Process* last_finished_ = nullptr;  // stack awaiting recycling

  // Scheduler-frame state.  The scheduler's frame is parked in sched_ctx_
  // across each switch into a fiber; finished fibers' stacks go to the
  // free list for reuse (peak-live-bounded, ASan-poisoned while pooled).
  internal::fcontext_t sched_ctx_ = nullptr;
  void* sched_asan_fake_stack_ = nullptr;
  const void* sched_stack_bottom_ = nullptr;  // learned at fiber entry
  std::size_t sched_stack_size_ = 0;
  void* sched_tsan_fiber_ = nullptr;  // re-read at every drain entry
  std::vector<internal::FiberStack> free_stacks_;
  // Stack arenas: one mmap of kArenaStacks stacks each, carved top slot
  // first.  Stacks never leave their kernel, so no lock guards them and no
  // mapping call sits on the spawn path in steady state; a world of 10^5
  // fibers costs ~1.6k mappings.  Shutdown materializes no fiber, so from
  // its start an arena with no live fiber has no future: shutdown unmaps
  // the idle ones at once and recycle_stack each of the others as its last
  // fiber finishes unwinding.  Unwinding a parked fiber faults in pages
  // below its frames; handing arenas back as they drain keeps those pages
  // from piling up across the whole teardown.
  static constexpr std::size_t kArenaStacks = 64;
  struct Arena {
    void* base = nullptr;    // nullptr once unmapped
    std::uint32_t live = 0;  // slots holding a materialized fiber's stack
  };
  void unmap_arena(Arena& arena);
  std::vector<Arena> arenas_;
  std::size_t arena_free_slots_ = 0;  // uncarved slots in arenas_.back()

  Rng rng_;
  Logger logger_;
};

// Hot methods defined here, below Kernel, so callers in any translation
// unit inline them: Event::set() is the waiter walk and a queue push,
// reset() a store, Context::now() one load.

inline TimePoint Context::now() const { return kernel_->now_; }

inline bool Kernel::entry_stale(const internal::QueueEntry& e) {
  return e.token != e.process->wake_token_;
}

inline void Kernel::schedule(TimePoint t, Process* p) {
  assert(p->state_ != Process::State::kFinished);
  const internal::QueueEntry entry{std::max(t, now_), next_seq_++, p,
                                   p->wake_token_};
  queue_.push(entry);
  ++p->live_wakeups_;
  ++p->queue_entries_;
  // Compaction keeps the queue O(live entries): without it, a long-lived
  // process cycling through wait_for timeouts strands one stale entry per
  // cycle and the queue grows for the whole run.
  if (stale_wakeups_ != 0) {
    const std::size_t size = queue_.size();
    if (size >= 64 && stale_wakeups_ > size / 2) {
      compact_queue();
    }
  }
  audit_accounting();
}

inline void Event::set() {
  set_ = true;
  pulse();
}

inline void Event::pulse() {
  kernel_->check_owner();
  // FIFO wake order (registration order) for deterministic seq assignment.
  Waiter* w = head_;
  head_ = tail_ = nullptr;
  while (w) {
    Waiter* next = w->next;
    // linked=false is the whole detach: every consumer (unlink, the
    // ~Event safety net, waiter cleanup in Context) checks it before
    // touching prev/next, so the stale pointers are never followed.
    w->linked = false;
    w->granted = true;
    kernel_->schedule(kernel_->now_, w->process);
    w = next;
  }
}

inline void Event::reset() {
  kernel_->check_owner();
  set_ = false;
}

inline bool Event::is_set() const { return set_; }

}  // namespace ethergrid::sim
