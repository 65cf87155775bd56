// The built-in scenarios: the three ROADMAP discipline invariants, the
// kernel and sharding races, and the wake-token self-test.
#include "mc/scenarios.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "mc/explorer.hpp"
#include "mc/trace.hpp"

namespace ethergrid::mc {
namespace {

class McScenariosTest : public ::testing::Test {
 protected:
  ExplorerOptions options_for(std::uint64_t max_executions = 100000) {
    ExplorerOptions options;
    options.max_executions = max_executions;
    return options;
  }
};

TEST_F(McScenariosTest, ListsAllScenarios) {
  const std::vector<std::string> names = scenario_names();
  ASSERT_EQ(names.size(), 8u);
  for (const std::string& name : names) {
    EXPECT_NE(make_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(make_scenario("no-such-scenario"), nullptr);
}

// Acceptance: exhaustive exploration of the 3-process forall sibling-abort
// script terminates and leaks nothing on any interleaving.
TEST_F(McScenariosTest, ForallAbortExploresExhaustively) {
  std::unique_ptr<Scenario> scenario = make_scenario("forall-abort");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.stats.executions, 1u);
}

TEST_F(McScenariosTest, TryTimeoutReleasesEverything) {
  std::unique_ptr<Scenario> scenario = make_scenario("try-timeout-resource");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
}

// Too large to close; must stay clean within a CI-sized budget.
TEST_F(McScenariosTest, CarrierSenseStaysCleanWithinBudget) {
  std::unique_ptr<Scenario> scenario = make_scenario("carrier-sense-crash");
  ASSERT_NE(scenario, nullptr);
  ExplorerOptions options = options_for(/*max_executions=*/40);
  options.max_depth = 40;
  options.max_transitions = 100000;
  Explorer explorer(*scenario, options);
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_GT(result.stats.executions, 1u);
}

// Acceptance: the deliberately re-introduced pre-PR-6 wake-token bug is
// caught, and the counterexample survives a serialize/parse/replay round
// trip.
TEST_F(McScenariosTest, WakeTokenSelfTestProducesReplayableCounterexample) {
  std::unique_ptr<Scenario> scenario = make_scenario("wake-token-selftest");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  ASSERT_FALSE(result.ok());
  const Violation& v = result.violations.front();
  EXPECT_EQ(v.invariant, "queue-accounting");
  ASSERT_FALSE(v.trace.empty());

  TraceFile trace;
  trace.scenario = scenario->name();
  trace.seed = 1;
  trace.violation = v.invariant;
  trace.decisions = v.trace;
  TraceFile reloaded;
  ASSERT_TRUE(parse_trace(format_trace(trace), &reloaded).ok());
  ASSERT_EQ(reloaded.decisions.size(), v.trace.size());

  std::unique_ptr<Scenario> replay_scenario = make_scenario(reloaded.scenario);
  ASSERT_NE(replay_scenario, nullptr);
  ExplorerOptions options;
  options.seed = reloaded.seed;
  Explorer replayer(*replay_scenario, options);
  const ExploreResult replayed = replayer.replay(reloaded.decisions);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.violations.front().invariant, "queue-accounting");
}

// Acceptance: the two-shard world with a cross-shard submit racing a kill
// at a window boundary closes exhaustively and stays clean -- no
// interleaving of the mailbox delivery, the kill, and the fault branch
// may double-deliver the reply, leak a process on either shard, or drift
// either shard's wakeup accounting.
TEST_F(McScenariosTest, CrossShardWindowExploresExhaustively) {
  std::unique_ptr<Scenario> scenario = make_scenario("cross-shard-window");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
  // The window-boundary race must actually branch: at least the fault
  // choice and one schedule choice.
  EXPECT_GT(result.stats.executions, 2u);
  EXPECT_GT(result.stats.choice_points, 0u);
}

// Every order of the kill and its victim at the window's last instant --
// including the one that leaves a stale entry at the front of shard 0 --
// must open exactly the windows the live entries imply: none at the stale
// entry's instant.
TEST_F(McScenariosTest, StaleFrontWindowExploresExhaustively) {
  std::unique_ptr<Scenario> scenario = make_scenario("stale-front-window");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.stats.executions, 1u);
  EXPECT_GT(result.stats.choice_points, 0u);
}

// Acceptance: the reservation-grant/kill race closes exhaustively and
// stays clean -- whichever side of the grant-delivery instant the kill
// lands on, and whichever fault branch stalls a flow, no booking leaks,
// no fluid flow is orphaned, the book never oversubscribes mid-flight,
// and the untargeted requester completes.
TEST_F(McScenariosTest, ReservationGrantKillExploresExhaustively) {
  std::unique_ptr<Scenario> scenario = make_scenario("reservation-grant-kill");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
  // The race must actually branch: the fault decisions plus the schedule
  // ambiguity at the t=2s grant-delivery instant.
  EXPECT_GT(result.stats.executions, 2u);
  EXPECT_GT(result.stats.choice_points, 0u);
}

// PR 10 lazy materialization: every arrival order of a kill racing the
// victim's first dispatch (before-dispatch, mid-run, after-finish) keeps
// accounting exact and gives the victim the result its fate implies.
TEST_F(McScenariosTest, KillVsFirstDispatchExploresExhaustively) {
  std::unique_ptr<Scenario> scenario = make_scenario("kill-vs-first-dispatch");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
  // Three processes runnable at t=0 must give the explorer real schedule
  // ambiguity; one of the orders is the kill-before-first-dispatch path.
  EXPECT_GT(result.stats.executions, 2u);
  EXPECT_GT(result.stats.choice_points, 0u);
}

TEST_F(McScenariosTest, ScriptScenarioRunsArbitrarySource) {
  std::unique_ptr<Scenario> scenario = make_script_scenario(
      "script:inline",
      "forall x in 1 2\n  sleep 1 millisecond\nend\n");
  ASSERT_NE(scenario, nullptr);
  Explorer explorer(*scenario, options_for());
  const ExploreResult result = explorer.explore();
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().message);
  EXPECT_TRUE(result.complete);
}

}  // namespace
}  // namespace ethergrid::mc
