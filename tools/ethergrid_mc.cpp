// ethergrid_mc: command-line driver for the mini model checker (src/mc).
//
// Explore a built-in scenario (or an ad-hoc ftsh script) across every
// same-instant scheduling order and fault branch, or deterministically
// re-execute a recorded counterexample trace:
//
//   ethergrid_mc --list
//   ethergrid_mc --scenario forall-abort --seed 7
//   ethergrid_mc --all --max-depth 24 --max-executions 2000
//   ethergrid_mc --script my.ftsh
//   ethergrid_mc --scenario wake-token-selftest --trace-out bug.trace
//   ethergrid_mc --replay bug.trace
//
// Exit codes: 0 = clean exploration (or replay outcome matches the trace's
// recorded expectation), 1 = violation (or replay mismatch), 2 = usage or
// input error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/scenarios.hpp"
#include "mc/trace.hpp"

namespace {

using namespace ethergrid;

struct Args {
  bool list = false;
  bool all = false;
  std::vector<std::string> scenarios;
  std::string script_path;
  std::string replay_path;
  std::string trace_out;
  mc::ExplorerOptions options;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--list] [--scenario NAME]... [--all] [--script FILE]\n"
      "          [--replay FILE] [--trace-out FILE]\n"
      "          [--seed N]\n"
      "          [--max-depth N] [--max-executions N] [--max-transitions N]\n"
      "          [--keep-going] [--state-pruning]\n",
      argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

void print_stats(const mc::ExplorerStats& stats, bool complete) {
  std::printf(
      "  executions=%llu transitions=%llu choice_points=%llu "
      "branches=%llu\n"
      "  sleep_skips=%llu state_prunes=%llu depth_truncations=%llu "
      "transition_truncations=%llu max_depth=%zu\n"
      "  exploration %s\n",
      static_cast<unsigned long long>(stats.executions),
      static_cast<unsigned long long>(stats.transitions),
      static_cast<unsigned long long>(stats.choice_points),
      static_cast<unsigned long long>(stats.branches_explored),
      static_cast<unsigned long long>(stats.sleep_set_skips),
      static_cast<unsigned long long>(stats.state_prunes),
      static_cast<unsigned long long>(stats.depth_truncations),
      static_cast<unsigned long long>(stats.transition_truncations),
      stats.max_depth_seen, complete ? "complete" : "bounded (incomplete)");
}

void print_violation(const mc::Violation& v) {
  std::printf("  VIOLATION [%s] %s\n", v.invariant.c_str(),
              v.message.c_str());
  std::printf("  counterexample (%zu decisions, execution %llu):\n",
              v.trace.size(), static_cast<unsigned long long>(v.execution));
  for (std::size_t i = 0; i < v.trace.size(); ++i) {
    const mc::Decision& d = v.trace[i];
    std::printf("    %3zu. %s %s -> %zu/%zu (%s)\n", i,
                mc::choice_kind_name(d.kind), d.site.c_str(), d.chosen,
                d.arity, d.label.c_str());
  }
}

// Explores one scenario; returns 0 clean, 1 violation.  Writes the first
// violation's trace to trace_out (if set).
int explore_scenario(mc::Scenario& scenario, const Args& args) {
  std::printf("exploring %s (seed=%llu)\n", scenario.name().c_str(),
              static_cast<unsigned long long>(args.options.seed));
  mc::Explorer explorer(scenario, args.options);
  const mc::ExploreResult result = explorer.explore();
  print_stats(result.stats, result.complete);
  if (result.ok()) {
    std::printf("  no violations\n");
    return 0;
  }
  for (const mc::Violation& v : result.violations) print_violation(v);
  if (!args.trace_out.empty()) {
    mc::TraceFile trace;
    trace.scenario = scenario.name();
    trace.seed = args.options.seed;
    trace.violation = result.violations.front().invariant;
    trace.decisions = result.violations.front().trace;
    const Status written = mc::write_trace_file(args.trace_out, trace);
    if (written.failed()) {
      std::fprintf(stderr, "error: %s\n",
                   std::string(written.message()).c_str());
    } else {
      std::printf("  trace written to %s\n", args.trace_out.c_str());
    }
  }
  return 1;
}

int replay_trace(const Args& args) {
  mc::TraceFile trace;
  const Status read = mc::read_trace_file(args.replay_path, &trace);
  if (read.failed()) {
    std::fprintf(stderr, "error: %s\n", std::string(read.message()).c_str());
    return 2;
  }
  std::unique_ptr<mc::Scenario> scenario = mc::make_scenario(trace.scenario);
  if (!scenario) {
    std::fprintf(stderr, "error: trace names unknown scenario \"%s\"\n",
                 trace.scenario.c_str());
    return 2;
  }
  mc::ExplorerOptions options = args.options;
  options.seed = trace.seed;
  std::printf("replaying %s (%zu decisions, seed=%llu)\n",
              args.replay_path.c_str(), trace.decisions.size(),
              static_cast<unsigned long long>(trace.seed));
  mc::Explorer explorer(*scenario, options);
  const mc::ExploreResult result = explorer.replay(trace.decisions);
  for (const mc::Violation& v : result.violations) print_violation(v);
  if (trace.violation.empty()) {
    if (result.ok()) {
      std::printf("  clean replay, as recorded\n");
      return 0;
    }
    std::printf("  REPLAY MISMATCH: trace is recorded clean but violated\n");
    return 1;
  }
  for (const mc::Violation& v : result.violations) {
    if (v.invariant == trace.violation) {
      std::printf("  reproduced recorded violation [%s]\n",
                  trace.violation.c_str());
      return 0;
    }
  }
  std::printf("  REPLAY MISMATCH: recorded violation [%s] did not reproduce\n",
              trace.violation.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.options.max_depth = 64;
  args.options.max_executions = 20000;
  args.options.max_transitions = 20000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--list") {
      args.list = true;
    } else if (arg == "--all") {
      args.all = true;
    } else if (arg == "--scenario") {
      const char* name = next();
      if (!name) return usage(argv[0]);
      args.scenarios.push_back(name);
    } else if (arg == "--script") {
      const char* path = next();
      if (!path) return usage(argv[0]);
      args.script_path = path;
    } else if (arg == "--replay") {
      const char* path = next();
      if (!path) return usage(argv[0]);
      args.replay_path = path;
    } else if (arg == "--trace-out") {
      const char* path = next();
      if (!path) return usage(argv[0]);
      args.trace_out = path;
    } else if (arg == "--seed") {
      const char* value = next();
      if (!value || !parse_u64(value, &args.options.seed)) {
        return usage(argv[0]);
      }
    } else if (arg == "--max-depth") {
      std::uint64_t value = 0;
      const char* text = next();
      if (!text || !parse_u64(text, &value)) return usage(argv[0]);
      args.options.max_depth = static_cast<std::size_t>(value);
    } else if (arg == "--max-executions") {
      const char* text = next();
      if (!text || !parse_u64(text, &args.options.max_executions)) {
        return usage(argv[0]);
      }
    } else if (arg == "--max-transitions") {
      const char* text = next();
      if (!text || !parse_u64(text, &args.options.max_transitions)) {
        return usage(argv[0]);
      }
    } else if (arg == "--keep-going") {
      args.options.stop_on_first_violation = false;
    } else if (arg == "--state-pruning") {
      args.options.state_pruning = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (args.list) {
    for (const std::string& name : mc::scenario_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (!args.replay_path.empty()) {
    return replay_trace(args);
  }

  std::vector<std::unique_ptr<mc::Scenario>> scenarios;
  if (args.all) {
    for (const std::string& name : mc::scenario_names()) {
      // The self-test intentionally violates; --all is the CI clean sweep.
      if (name == "wake-token-selftest") continue;
      scenarios.push_back(mc::make_scenario(name));
    }
  }
  for (const std::string& name : args.scenarios) {
    std::unique_ptr<mc::Scenario> scenario = mc::make_scenario(name);
    if (!scenario) {
      std::fprintf(stderr, "unknown scenario: %s (try --list)\n",
                   name.c_str());
      return 2;
    }
    scenarios.push_back(std::move(scenario));
  }
  if (!args.script_path.empty()) {
    std::ifstream in(args.script_path);
    if (!in) {
      std::fprintf(stderr, "cannot open script: %s\n",
                   args.script_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    scenarios.push_back(
        mc::make_script_scenario("script:" + args.script_path, text.str()));
  }
  if (scenarios.empty()) return usage(argv[0]);

  int exit_code = 0;
  for (const std::unique_ptr<mc::Scenario>& scenario : scenarios) {
    const int rc = explore_scenario(*scenario, args);
    if (rc != 0) exit_code = rc;
  }
  return exit_code;
}
