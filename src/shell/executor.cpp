#include "shell/executor.hpp"

#include <cstdio>
#include <string>
#include <string_view>

#include "util/time.hpp"

namespace ethergrid::shell {

void Executor::set_parallel_policy(const ParallelPolicy& policy) {
  parallel_policy_ = policy;
  process_table_.reset();
}

std::vector<Status> Executor::forall(
    sim::Context& parent, std::vector<std::function<Status()>>& branches) {
  // Interned once per process; emission then carries a plain integer.
  static const obs::SiteId kForallSite = obs::intern_site("forall");
  static const obs::SiteId kTableSite = obs::intern_site("forall.table");
  const ParallelPolicy policy = parallel_policy_;
  if (policy.process_table_slots > 0 && !process_table_) {
    process_table_ = std::make_unique<sim::Resource>(
        parent.kernel(), policy.process_table_slots);
  }
  sim::Resource* const table = process_table_.get();
  const std::size_t n = branches.size();
  std::vector<Status> statuses(n, Status::killed("forall branch aborted"));
  std::vector<sim::ProcessHandle> children(n);  // null until spawned
  sim::Event progress(parent.kernel());
  std::size_t finished = 0;
  std::size_t active = 0;
  std::size_t next = 0;
  bool any_failed = false;

  // Whatever happens (including an enclosing deadline unwinding the parent
  // mid-wait), no branch may outlive this call.  A killed branch's only
  // cleanup (the process-table slot, RAII in the child body) touches
  // executor-owned state, never this frame.
  struct KillAll {
    sim::Context& parent;
    std::vector<sim::ProcessHandle>& children;
    ~KillAll() {
      for (auto& child : children) {
        if (child && !child->finished()) parent.kill(child, "forall aborted");
      }
    }
  } kill_all{parent, children};

  // Call only with observers installed; `detail` must outlive the call.
  auto emit = [&](obs::ObsEvent::Kind kind, obs::SiteId site, double value,
                  std::string_view detail) {
    obs::ObsEvent event;
    event.kind = kind;
    event.time = parent.now();
    event.site = site;
    event.value = value;
    event.detail = detail;
    observers_->on_event(event);
  };

  auto spawn_one = [&](std::size_t i) {
    ++active;
    if (observers_) {
      emit(obs::ObsEvent::Kind::kOccupancy, kForallSite, double(active), {});
    }
    children[i] = parent.spawn(
        parent.process().name() + "/forall" + std::to_string(i),
        [this, &branches, &statuses, &progress, &finished, &active,
         &any_failed, table, i](sim::Context& child_ctx) {
          // The table slot belongs to the executor and must come back even
          // if this branch is killed mid-flight.
          struct SlotReturn {
            sim::Resource* table;
            ~SlotReturn() {
              if (table) table->release();
            }
          } slot{table};
          obs::Span span;
          if (observers_) {
            span.kind = obs::SpanKind::kProcess;
            span.name = child_ctx.process().name();
            span.track = i + 1;  // lane 0 is the spawning script
            span.start = child_ctx.now();
            observers_->begin_span(span);
          }
          Status status = branches[i]();  // Interrupted propagates past us
          statuses[i] = std::move(status);
          if (observers_) {
            span.end = child_ctx.now();
            span.status = statuses[i];
            observers_->end_span(span);
          }
          ++finished;
          --active;
          if (statuses[i].failed()) any_failed = true;
          progress.pulse();
        });
  };

  // Ethernet-governed branch creation: respect the per-forall window and
  // carrier-sense the shared process table, backing off (jittered,
  // exponential) while it is busy.  Enclosing try deadlines preempt the
  // waits as usual.
  core::Backoff backoff(policy.backoff, parent.rng());
  while (finished < n && !any_failed) {
    bool table_busy = false;
    while (next < n && !any_failed &&
           (policy.max_concurrent <= 0 ||
            active < std::size_t(policy.max_concurrent))) {
      if (table && !table->try_acquire()) {
        if (observers_) {
          char detail[32];
          std::snprintf(detail, sizeof(detail), "slots=%lld",
                        (long long)policy.process_table_slots);
          emit(obs::ObsEvent::Kind::kTableFull, kTableSite, 0, detail);
        }
        if (policy.on_table_full == ParallelPolicy::OnTableFull::kFail) {
          // The naive baseline: fork() fails, the branch fails, the forall
          // fails.  (The Ethernet alternative backs off below.)
          statuses[next++] = Status::resource_exhausted(
              "cannot create process: table full");
          any_failed = true;
          break;
        }
        table_busy = true;
        break;
      }
      spawn_one(next++);
    }
    if (finished >= n || any_failed) break;
    if (table_busy && active == 0) {
      // Nothing of ours is running to free a slot: pure contention with
      // other scripts.  Back off like any Ethernet client.
      const Duration delay = backoff.next();
      if (observers_) {
        emit(obs::ObsEvent::Kind::kBackoff, kTableSite, to_seconds(delay), {});
      }
      (void)parent.wait_for(progress, delay);
    } else {
      parent.wait(progress);
      backoff.reset();
    }
  }

  if (any_failed) {
    for (auto& child : children) {
      if (child && !child->finished()) {
        parent.kill(child, "forall sibling failed");
      }
    }
  }
  for (auto& child : children) {
    if (child) parent.join(child);
  }
  return statuses;
}

}  // namespace ethergrid::shell
