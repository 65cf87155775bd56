#include "mc/explorer.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace ethergrid::mc {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

Invariant no_leaked_processes() {
  return Invariant{
      "no-leaked-processes", /*every_transition=*/false,
      [](const CheckContext& ctx) -> Status {
        const std::size_t live = ctx.kernel.live_process_count();
        if (live == 0) return Status::success();
        // run() only returns when the queue is empty, so anything still
        // live is blocked with no pending wakeup: a leak or a deadlock.
        return Status::failure(
            std::to_string(live) +
            " process(es) still live after the run drained "
            "(leaked or deadlocked): " +
            join_names(ctx.kernel.live_process_names()));
      }};
}

Invariant queue_accounting() {
  return Invariant{"queue-accounting", /*every_transition=*/true,
                   [](const CheckContext& ctx) -> Status {
                     return ctx.kernel.verify_queue_accounting();
                   }};
}

// The per-exploration Strategy implementation: answers choice points by
// replaying the DFS stack prefix and extending it at the frontier, ticks
// budgets and per-transition invariants from on_transition, and records the
// choice vector for counterexample traces.
class Explorer::Driver final : public Strategy {
 public:
  Driver(Scenario& scenario, const ExplorerOptions& options,
         const std::vector<Decision>* replay_trace)
      : scenario_(scenario), options_(options), replay_trace_(replay_trace) {}

  // --- per-execution state, reset by begin_run ---
  sim::Kernel* kernel = nullptr;
  ScenarioWorld* world = nullptr;
  const InvariantSet* invariants = nullptr;

  ExplorerStats stats;
  std::vector<Violation> violations;

  bool bailed() const { return bail_; }
  bool truncated() const { return truncated_run_; }
  bool pruned() const { return pruned_run_; }
  bool violated() const { return violated_run_; }
  std::uint64_t transitions_this_run() const { return transitions_run_; }

  void begin_run() {
    depth_ = 0;
    current_.clear();
    transitions_run_ = 0;
    bail_ = false;
    truncated_run_ = false;
    pruned_run_ = false;
    violated_run_ = false;
    ++execution_index_;
  }

  void record_violation(std::string invariant, std::string message) {
    violations.push_back(Violation{std::move(invariant), std::move(message),
                                   current_, execution_index_ - 1});
    violated_run_ = true;
    bail_ = true;
  }

  std::size_t choose(const ChoicePoint& cp) override {
    if (bail_) return 0;
    ++stats.choice_points;
    if (replay_trace_ != nullptr) return choose_replay(cp);
    return choose_explore(cp);
  }

  bool on_transition() override {
    if (bail_) return false;
    ++transitions_run_;
    ++stats.transitions;
    if (transitions_run_ > options_.max_transitions) {
      truncated_run_ = true;
      ++stats.transition_truncations;
      bail_ = true;
      return false;
    }
    const CheckContext ctx{*kernel, /*at_end=*/false, transitions_run_};
    for (const Invariant& inv : invariants->all()) {
      if (!inv.every_transition) continue;
      const Status status = inv.check(ctx);
      if (status.failed()) {
        record_violation(inv.name, std::string(status.message()));
        return false;
      }
    }
    return true;
  }

  // End-of-execution invariant pass; only meaningful for runs that drained
  // to completion (a truncated or pruned run is mid-flight by design).
  void check_end_invariants() {
    if (bail_ || truncated_run_ || pruned_run_) return;
    const CheckContext ctx{*kernel, /*at_end=*/true, transitions_run_};
    for (const Invariant& inv : invariants->all()) {
      const Status status = inv.check(ctx);
      if (status.failed()) {
        record_violation(inv.name, std::string(status.message()));
        return;
      }
    }
    stats.max_depth_seen = std::max(stats.max_depth_seen, depth_);
  }

  // Advances the deepest node with an unexplored, non-sleeping branch.
  // Returns false when the whole tree is closed.
  bool backtrack() {
    while (!stack_.empty()) {
      Node& node = stack_.back();
      node.explored.push_back(node.labels[node.chosen]);
      std::size_t next = node.chosen + 1;
      while (next < node.labels.size() &&
             node.sleep.count(node.labels[next]) != 0) {
        ++stats.sleep_set_skips;
        ++next;
      }
      if (next < node.labels.size()) {
        node.chosen = next;
        ++stats.branches_explored;
        return true;
      }
      stack_.pop_back();
    }
    return false;
  }

  const std::vector<Decision>& current_trace() const { return current_; }

 private:
  struct Node {
    ChoicePoint::Kind kind;
    std::string site;
    std::vector<std::string> labels;
    std::size_t chosen = 0;
    std::vector<std::string> explored;  // branches already fully explored
    std::set<std::string> sleep;        // inherited sleep set (POR)
  };

  void record_decision(const ChoicePoint& cp, std::size_t chosen) {
    Decision d;
    d.kind = cp.kind;
    d.site = std::string(cp.site);
    d.chosen = chosen;
    d.arity = cp.labels.size();
    d.label = chosen < cp.labels.size() ? cp.labels[chosen] : std::string();
    current_.push_back(std::move(d));
  }

  std::size_t choose_replay(const ChoicePoint& cp) {
    if (depth_ >= replay_trace_->size()) {
      // Past the recorded prefix: follow the default deterministic order.
      record_decision(cp, 0);
      ++depth_;
      return 0;
    }
    const Decision& d = (*replay_trace_)[depth_];
    if (d.kind != cp.kind || d.arity != cp.labels.size() ||
        (d.chosen < cp.labels.size() && !d.label.empty() &&
         d.label != cp.labels[d.chosen])) {
      record_violation(
          "mc.divergence",
          "replay diverged at decision " + std::to_string(depth_) +
              ": recorded " + std::string(choice_kind_name(d.kind)) + "/" +
              d.label + " arity " + std::to_string(d.arity) + ", live " +
              std::string(choice_kind_name(cp.kind)) + " arity " +
              std::to_string(cp.labels.size()));
      return 0;
    }
    const std::size_t chosen =
        d.chosen < cp.labels.size() ? d.chosen : 0;
    record_decision(cp, chosen);
    ++depth_;
    return chosen;
  }

  std::size_t choose_explore(const ChoicePoint& cp) {
    if (depth_ < stack_.size()) {
      // Replaying the current DFS prefix.  The simulation is deterministic,
      // so the same prefix must surface the same choice points; anything
      // else means a scenario leaked nondeterminism past the seam.
      Node& node = stack_[depth_];
      if (node.kind != cp.kind || node.labels != cp.labels) {
        record_violation("mc.divergence",
                         "prefix replay diverged at decision " +
                             std::to_string(depth_) +
                             " (scenario is nondeterministic outside the "
                             "strategy seam)");
        return 0;
      }
      record_decision(cp, node.chosen);
      ++depth_;
      return node.chosen;
    }
    // Frontier: a choice point no previous execution has reached.
    if (depth_ >= options_.max_depth) {
      truncated_run_ = true;
      ++stats.depth_truncations;
      bail_ = true;
      return 0;
    }
    if (options_.state_pruning) {
      std::uint64_t digest = kernel->state_digest();
      digest ^= world->digest() * 0x9e3779b97f4a7c15ull;
      if (!seen_states_.insert(digest).second) {
        ++stats.state_prunes;
        pruned_run_ = true;
        bail_ = true;
        return 0;
      }
    }
    Node node;
    node.kind = cp.kind;
    node.site = std::string(cp.site);
    node.labels = cp.labels;
    if (!stack_.empty()) {
      // Sleep-set inheritance: a branch explored at the parent stays asleep
      // below as long as it is independent of the branch taken there.
      const Node& parent = stack_.back();
      const std::string& taken = parent.labels[parent.chosen];
      auto inherit = [&](const std::string& label) {
        if (scenario_.independent(label, taken)) node.sleep.insert(label);
      };
      for (const std::string& label : parent.sleep) inherit(label);
      for (const std::string& label : parent.explored) inherit(label);
    }
    std::size_t first = 0;
    while (first < node.labels.size() &&
           node.sleep.count(node.labels[first]) != 0) {
      ++stats.sleep_set_skips;
      ++first;
    }
    if (first == node.labels.size()) {
      // Every branch is asleep: the whole subtree is covered by siblings.
      pruned_run_ = true;
      bail_ = true;
      return 0;
    }
    node.chosen = first;
    record_decision(cp, first);
    stack_.push_back(std::move(node));
    ++stats.branches_explored;
    ++depth_;
    stats.max_depth_seen = std::max(stats.max_depth_seen, depth_);
    return first;
  }

  Scenario& scenario_;
  const ExplorerOptions& options_;
  const std::vector<Decision>* replay_trace_;

  std::vector<Node> stack_;
  std::unordered_set<std::uint64_t> seen_states_;
  std::uint64_t execution_index_ = 0;

  // Per-execution state.
  std::size_t depth_ = 0;
  std::vector<Decision> current_;
  std::uint64_t transitions_run_ = 0;
  bool bail_ = false;
  bool truncated_run_ = false;
  bool pruned_run_ = false;
  bool violated_run_ = false;
};

Explorer::Explorer(Scenario& scenario, ExplorerOptions options)
    : scenario_(scenario), options_(std::move(options)) {}

void Explorer::run_one(Driver& driver, ExploreResult& result) {
  ++driver.stats.executions;
  driver.begin_run();
  sim::Kernel kernel(options_.seed,
                     scenario_.kernel_options(options_.kernel));
  // Thousands of re-executions of arbitrary interleavings would flood the
  // back channel with meaningless warnings; violations carry their own trace.
  kernel.logger().set_threshold(LogLevel::kOff);
  InvariantSet invariants;
  invariants.add(queue_accounting());
  invariants.add(no_leaked_processes());
  std::unique_ptr<ScenarioWorld> world =
      scenario_.build(kernel, &driver, invariants);
  driver.kernel = &kernel;
  driver.world = world.get();
  driver.invariants = &invariants;
  kernel.set_strategy(&driver);
  try {
    scenario_.drive(kernel, *world);
  } catch (const std::exception& e) {
    driver.record_violation("mc.exception",
                           std::string("exception escaped the run: ") +
                               e.what());
  } catch (...) {
    driver.record_violation("mc.exception",
                           "non-standard exception escaped the run");
  }
  kernel.set_strategy(nullptr);
  driver.check_end_invariants();
  kernel.shutdown();
  driver.kernel = nullptr;
  driver.world = nullptr;
  driver.invariants = nullptr;
  world.reset();
  (void)result;
}

ExploreResult Explorer::explore() {
  ExploreResult result;
  Driver driver(scenario_, options_, /*replay_trace=*/nullptr);
  bool budget_hit = false;
  bool stopped_early = false;
  while (true) {
    if (driver.stats.executions >= options_.max_executions) {
      budget_hit = true;
      stopped_early = true;
      break;
    }
    run_one(driver, result);
    if (driver.truncated()) budget_hit = true;
    if (driver.violated() && options_.stop_on_first_violation) {
      stopped_early = true;
      break;
    }
    if (!driver.backtrack()) break;  // tree closed
  }
  result.stats = driver.stats;
  result.violations = std::move(driver.violations);
  result.complete = !budget_hit && !stopped_early;
  return result;
}

ExploreResult Explorer::replay(const std::vector<Decision>& trace) {
  ExploreResult result;
  Driver driver(scenario_, options_, &trace);
  run_one(driver, result);
  result.stats = driver.stats;
  result.violations = std::move(driver.violations);
  result.complete = !driver.truncated();
  return result;
}

}  // namespace ethergrid::mc
