// Trace file format: round-trips, forward compatibility, and line-numbered
// rejection of malformed input.
#include "mc/trace.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ethergrid::mc {
namespace {

TraceFile sample_trace() {
  TraceFile trace;
  trace.scenario = "forall-abort";
  trace.seed = 42;
  trace.violation = "queue-accounting";
  trace.decisions.push_back(
      Decision{ChoicePoint::Kind::kSchedule, "sched", 2, 3, "branch#4"});
  trace.decisions.push_back(Decision{ChoicePoint::Kind::kFault,
                                     "schedd.submit", 1, 2,
                                     "crash@schedd.submit#0"});
  return trace;
}

TEST(TraceTest, RoundTripsViolationTrace) {
  const TraceFile trace = sample_trace();
  TraceFile reloaded;
  ASSERT_TRUE(parse_trace(format_trace(trace), &reloaded).ok());
  EXPECT_EQ(reloaded.scenario, trace.scenario);
  EXPECT_EQ(reloaded.seed, trace.seed);
  EXPECT_EQ(reloaded.violation, trace.violation);
  ASSERT_EQ(reloaded.decisions.size(), 2u);
  EXPECT_EQ(reloaded.decisions[0].kind, ChoicePoint::Kind::kSchedule);
  EXPECT_EQ(reloaded.decisions[0].site, "sched");
  EXPECT_EQ(reloaded.decisions[0].chosen, 2u);
  EXPECT_EQ(reloaded.decisions[0].arity, 3u);
  EXPECT_EQ(reloaded.decisions[0].label, "branch#4");
  EXPECT_EQ(reloaded.decisions[1].kind, ChoicePoint::Kind::kFault);
  EXPECT_EQ(reloaded.decisions[1].site, "schedd.submit");
}

TEST(TraceTest, RoundTripsCleanTrace) {
  TraceFile trace = sample_trace();
  trace.violation.clear();
  const std::string text = format_trace(trace);
  EXPECT_EQ(text.find("violation"), std::string::npos);
  TraceFile reloaded;
  ASSERT_TRUE(parse_trace(text, &reloaded).ok());
  EXPECT_TRUE(reloaded.violation.empty());
}

TEST(TraceTest, LabelsMayContainSpaces) {
  TraceFile trace = sample_trace();
  trace.decisions[0].label = "a label with spaces";
  TraceFile reloaded;
  ASSERT_TRUE(parse_trace(format_trace(trace), &reloaded).ok());
  EXPECT_EQ(reloaded.decisions[0].label, "a label with spaces");
}

TEST(TraceTest, IgnoresCommentsAndUnknownHeaders) {
  TraceFile reloaded;
  const Status parsed = parse_trace(
      "ethergrid-mc-trace v2\n"
      "# a comment\n"
      "scenario forall-abort\n"
      "seed 7\n"
      "future-key future value\n"
      "d sched 0 2 sched a#1\n"
      "end\n",
      &reloaded);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(reloaded.seed, 7u);
  ASSERT_EQ(reloaded.decisions.size(), 1u);
}

TEST(TraceTest, RejectsBadMagic) {
  TraceFile out;
  EXPECT_TRUE(parse_trace("not-a-trace v9\nend\n", &out).failed());
}

// v1 traces named an event queue (`queue wheel|heap`); the kernel has one
// queue now, so they are refused with a message that says how to update.
TEST(TraceTest, RejectsV1WithClearMessage) {
  TraceFile out;
  const Status parsed = parse_trace(
      "ethergrid-mc-trace v1\n"
      "scenario forall-abort\n"
      "queue wheel\n"
      "seed 1\n"
      "end\n",
      &out);
  ASSERT_TRUE(parsed.failed());
  EXPECT_NE(parsed.message().find("v1"), std::string::npos)
      << parsed.message();
  EXPECT_NE(parsed.message().find("v2"), std::string::npos)
      << parsed.message();
}

TEST(TraceTest, RejectsChosenOutOfRange) {
  TraceFile out;
  const Status parsed = parse_trace(
      "ethergrid-mc-trace v2\n"
      "scenario x\n"
      "d sched 3 2 sched a#1\n"
      "end\n",
      &out);
  ASSERT_TRUE(parsed.failed());
  EXPECT_NE(parsed.message().find("line 3"), std::string::npos)
      << parsed.message();
}

TEST(TraceTest, RejectsMalformedDecisionLine) {
  TraceFile out;
  EXPECT_TRUE(parse_trace(
                  "ethergrid-mc-trace v2\n"
                  "d sched zero 2 sched a#1\n"
                  "end\n",
                  &out)
                  .failed());
}

TEST(TraceTest, RejectsMissingEnd) {
  TraceFile out;
  EXPECT_TRUE(parse_trace(
                  "ethergrid-mc-trace v2\n"
                  "scenario x\n"
                  "d sched 0 2 sched a#1\n",
                  &out)
                  .failed());
}

}  // namespace
}  // namespace ethergrid::mc
