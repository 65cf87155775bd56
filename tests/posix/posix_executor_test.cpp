// Real-process executor tests.  These run actual /bin utilities; every
// timeout here is sub-second wall clock to keep the suite fast.
#include "posix/posix_executor.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "shell/environment.hpp"
#include "shell/interpreter.hpp"

namespace ethergrid::posix {
namespace {

using shell::CommandInvocation;
using shell::CommandResult;

PosixExecutorOptions fast_options() {
  PosixExecutorOptions o;
  o.kill_grace = msec(200);
  o.poll_interval = msec(5);
  return o;
}

CommandInvocation inv(std::vector<std::string> argv) {
  CommandInvocation i;
  i.argv = std::move(argv);
  return i;
}

TEST(PosixExecutorTest, TrueSucceedsFalseFails) {
  PosixExecutor ex(fast_options());
  EXPECT_TRUE(ex.run(inv({"true"})).status.ok());
  Status s = ex.run(inv({"false"})).status;
  EXPECT_TRUE(s.failed());
  EXPECT_NE(s.message().find("exit status 1"), std::string::npos);
}

TEST(PosixExecutorTest, CapturesStdout) {
  PosixExecutor ex(fast_options());
  CommandResult r = ex.run(inv({"echo", "hello", "world"}));
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.out, "hello world\n");
  EXPECT_TRUE(r.err.empty());
}

TEST(PosixExecutorTest, CapturesStderrSeparately) {
  PosixExecutor ex(fast_options());
  CommandResult r = ex.run(inv({"sh", "-c", "echo out; echo err >&2"}));
  EXPECT_EQ(r.out, "out\n");
  EXPECT_EQ(r.err, "err\n");
}

TEST(PosixExecutorTest, MergeStderr) {
  PosixExecutor ex(fast_options());
  CommandInvocation i = inv({"sh", "-c", "echo out; echo err >&2"});
  i.merge_stderr = true;
  CommandResult r = ex.run(i);
  EXPECT_NE(r.out.find("out"), std::string::npos);
  EXPECT_NE(r.out.find("err"), std::string::npos);
  EXPECT_TRUE(r.err.empty());
}

TEST(PosixExecutorTest, UnknownCommandIsNotFound) {
  PosixExecutor ex(fast_options());
  Status s = ex.run(inv({"definitely-no-such-binary-xyz"})).status;
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(PosixExecutorTest, StdinDataFlowsToChild) {
  PosixExecutor ex(fast_options());
  CommandInvocation i = inv({"cat"});
  i.stdin_data = "payload 123\n";
  CommandResult r = ex.run(i);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.out, "payload 123\n");
}

TEST(PosixExecutorTest, LargeStdinDoesNotDeadlock) {
  PosixExecutor ex(fast_options());
  std::string big(1 << 20, 'x');  // 1 MB: far beyond the pipe buffer
  CommandInvocation i = inv({"wc", "-c"});
  i.stdin_data = big;
  CommandResult r = ex.run(i);
  ASSERT_TRUE(r.status.ok());
  EXPECT_NE(r.out.find("1048576"), std::string::npos);
}

TEST(PosixExecutorTest, FileRedirectionRoundTrip) {
  PosixExecutor ex(fast_options());
  const std::string path = ::testing::TempDir() + "ethergrid_redirect.txt";
  std::remove(path.c_str());

  CommandInvocation write = inv({"echo", "data"});
  write.stdout_file = path;
  ASSERT_TRUE(ex.run(write).status.ok());

  CommandInvocation append = inv({"echo", "more"});
  append.stdout_file = path;
  append.stdout_append = true;
  ASSERT_TRUE(ex.run(append).status.ok());

  CommandInvocation read = inv({"cat"});
  read.stdin_file = path;
  EXPECT_EQ(ex.run(read).out, "data\nmore\n");
  std::remove(path.c_str());
}

TEST(PosixExecutorTest, MissingStdinFileFails) {
  PosixExecutor ex(fast_options());
  CommandInvocation i = inv({"cat"});
  i.stdin_file = "/no/such/file/anywhere";
  EXPECT_TRUE(ex.run(i).status.failed());
}

TEST(PosixExecutorTest, DeadlineKillsWedgedCommand) {
  PosixExecutor ex(fast_options());
  CommandInvocation i = inv({"sleep", "30"});
  i.deadline = ex.now() + msec(300);
  const TimePoint start = ex.now();
  Status s = ex.run(i).status;
  const Duration took = ex.now() - start;
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_LT(took, sec(3));
}

TEST(PosixExecutorTest, SessionKillReachesGrandchildren) {
  // The child forks a grandchild; killing the session must take both.
  PosixExecutor ex(fast_options());
  CommandInvocation i = inv({"sh", "-c", "sleep 30 & wait"});
  i.deadline = ex.now() + msec(300);
  const TimePoint start = ex.now();
  Status s = ex.run(i).status;
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_LT(ex.now() - start, sec(3));
}

TEST(PosixExecutorTest, SigtermResistantChildGetsSigkilled) {
  PosixExecutor ex(fast_options());
  CommandInvocation i = inv({"sh", "-c", "trap '' TERM; sleep 30"});
  i.deadline = ex.now() + msec(200);
  const TimePoint start = ex.now();
  Status s = ex.run(i).status;
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  // ~200 ms deadline + ~200 ms grace, then SIGKILL.
  EXPECT_LT(ex.now() - start, sec(3));
}

TEST(PosixExecutorTest, FileExists) {
  PosixExecutor ex(fast_options());
  EXPECT_TRUE(ex.file_exists("/"));
  EXPECT_FALSE(ex.file_exists("/no/such/path/zzz"));
}

TEST(PosixExecutorTest, RunParallelAllSucceed) {
  PosixExecutor ex(fast_options());
  auto statuses = ex.run_parallel({
      [&] { return ex.run(inv({"true"})).status; },
      [&] { return ex.run(inv({"echo", "hi"})).status; },
  });
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
}

TEST(PosixExecutorTest, RunParallelAbortsSiblings) {
  PosixExecutor ex(fast_options());
  const TimePoint start = ex.now();
  auto statuses = ex.run_parallel({
      [&] { return ex.run(inv({"false"})).status; },
      [&] {
        CommandInvocation slow = inv({"sleep", "30"});
        return ex.run(slow).status;
      },
  });
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].failed());
  EXPECT_TRUE(statuses[1].failed());
  EXPECT_LT(ex.now() - start, sec(5));  // the sleep was killed, not awaited
}

// ---- the executor's clock (wall time since construction) ----

TEST(PosixExecutorTest, ClockStartsNearEpochAndAdvances) {
  PosixExecutor ex(fast_options());
  const TimePoint a = ex.now();
  EXPECT_LT(a - kEpoch, sec(1));
  ex.sleep(msec(20));
  EXPECT_GE(ex.now() - a, msec(20));
}

TEST(PosixExecutorTest, NegativeSleepReturnsImmediately) {
  PosixExecutor ex(fast_options());
  const TimePoint a = ex.now();
  ex.sleep(Duration(-5));
  EXPECT_LT(ex.now() - a, msec(50));
}

TEST(PosixExecutorTest, WithDeadlinePassesThroughStatus) {
  PosixExecutor ex(fast_options());
  EXPECT_TRUE(ex.with_deadline(TimePoint::max(), [] {
                  return Status::success();
                }).ok());
  EXPECT_EQ(ex.with_deadline(TimePoint::max(),
                             [] { return Status::failure("x"); })
                .code(),
            StatusCode::kFailure);
}

TEST(PosixExecutorTest, WithDeadlinePreemptsBodyAtItsDeadline) {
  // The deadline is preemptive, not a relabelled late failure: the body is
  // unwound out of its sleep at the deadline.
  PosixExecutor ex(fast_options());
  bool completed = false;
  const TimePoint start = ex.now();
  Status s = ex.with_deadline(start + msec(100), [&] {
    ex.sleep(sec(30));
    completed = true;
    return Status::success();
  });
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
  EXPECT_FALSE(completed);
  EXPECT_GE(ex.now() - start, msec(100));
  EXPECT_LT(ex.now() - start, sec(2));
}

// ---- full interpreter over real processes ----

TEST(PosixIntegrationTest, ScriptWithRealCommands) {
  PosixExecutor ex(fast_options());
  shell::Interpreter interp(ex);
  shell::Environment env;
  Status s = interp.run_source(
      "echo starting\n"
      "hostname -> h\n"
      "true\n"
      "echo done",
      env);
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(interp.output(), "starting\ndone\n");
  EXPECT_TRUE(env.get("h").has_value());
}

TEST(PosixIntegrationTest, TryForWallTimeAbortsSleep) {
  PosixExecutor ex(fast_options());
  shell::InterpreterOptions options;
  options.backoff = core::BackoffPolicy::fixed(msec(10));
  shell::Interpreter interp(ex, options);
  shell::Environment env;
  const TimePoint start = ex.now();
  Status s = interp.run_source("try for 1 seconds\n  sleep 30\nend", env);
  EXPECT_TRUE(s.failed());
  EXPECT_LT(ex.now() - start, sec(5));
}

TEST(PosixIntegrationTest, TryTimesRetriesRealCommand) {
  PosixExecutor ex(fast_options());
  shell::InterpreterOptions options;
  options.backoff = core::BackoffPolicy::fixed(msec(5));
  shell::Interpreter interp(ex, options);
  shell::Environment env;
  // A file-based counter: fails until the third run.
  const std::string counter = ::testing::TempDir() + "ethergrid_counter";
  std::remove(counter.c_str());
  Status s = interp.run_source(
      "try 5 times\n"
      "  sh -c \"echo x >> " + counter + "; test $(wc -l < " + counter +
          ") -ge 3\"\n"
      "end",
      env);
  EXPECT_TRUE(s.ok()) << s.to_string();
  std::ifstream in(counter);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3);
  std::remove(counter.c_str());
}

TEST(PosixIntegrationTest, ForallRealParallelism) {
  PosixExecutor ex(fast_options());
  shell::Interpreter interp(ex);
  shell::Environment env;
  const TimePoint start = ex.now();
  Status s = interp.run_source(
      "forall t in 0.3 0.3 0.3\n  sleep ${t}\nend", env);
  EXPECT_TRUE(s.ok()) << s.to_string();
  const Duration took = ex.now() - start;
  EXPECT_LT(took, msec(800));  // parallel: ~0.3 s, not 0.9 s
}

TEST(PosixIntegrationTest, VariableCaptureFromRealCommand) {
  PosixExecutor ex(fast_options());
  shell::Interpreter interp(ex);
  shell::Environment env;
  Status s = interp.run_source(
      "sh -c \"echo 512\" -> n\n"
      "if ${n} .lt. 1000\n  echo low\nend",
      env);
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(interp.output(), "low\n");
}

}  // namespace
}  // namespace ethergrid::posix
