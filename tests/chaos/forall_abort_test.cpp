// Sibling-abort under stalls: when one forall branch fails, a branch stuck
// in a stalled external command (or a pure compute loop) must die promptly
// -- the cancellation promise the paper's recovery model depends on.  Real
// processes and wall-clock bounds: a regression here shows up as a 30 s
// hang, caught by the assertions long before the test timeout.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "posix/posix_executor.hpp"
#include "shell/executor.hpp"

namespace ethergrid::posix {
namespace {

using WallClock = std::chrono::steady_clock;

double elapsed_seconds(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

shell::CommandInvocation command(std::vector<std::string> argv) {
  shell::CommandInvocation inv;
  inv.argv = std::move(argv);
  return inv;
}

TEST(ForallAbortTest, StalledCommandBranchIsKilledWhenSiblingFails) {
  PosixExecutor executor;
  const auto start = WallClock::now();

  std::vector<std::function<Status()>> branches;
  // The stalled branch: an external process that would run for 30 s.
  branches.push_back([&executor] {
    return executor.run(command({"/bin/sh", "-c", "sleep 30"})).status;
  });
  // The failing sibling: quick, decisive.
  branches.push_back([&executor] {
    executor.run(command({"/bin/sh", "-c", "sleep 0.2"}));
    return Status::failure("sibling failed");
  });

  std::vector<Status> statuses = executor.run_parallel(std::move(branches));

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].failed());  // killed, not completed
  EXPECT_TRUE(statuses[1].failed());
  // Promptness is the contract: the stalled process was signalled as soon
  // as the sibling failed, not after its own 30 s ran out.
  EXPECT_LT(elapsed_seconds(start), 10.0);
}

TEST(ForallAbortTest, ComputeBranchObservesAbortRequested) {
  // A branch that never runs a command or sleeps -- it only passes the
  // interpreter's between-statement checkpoint -- must still be killed
  // promptly when its sibling fails: the checkpoint yields to the driver,
  // and the kill unwinds the branch from there.
  PosixExecutor executor;
  const auto start = WallClock::now();
  bool ran_to_completion = false;

  std::vector<std::function<Status()>> branches;
  branches.push_back([&executor, &ran_to_completion, start] {
    while (elapsed_seconds(start) < 20.0) {
      if (executor.checkpoint()) return Status::killed("stopped");
    }
    ran_to_completion = true;
    return Status::failure("never killed");
  });
  branches.push_back([&executor] {
    executor.sleep(msec(100));
    return Status::failure("sibling failed");
  });

  std::vector<Status> statuses = executor.run_parallel(std::move(branches));

  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_FALSE(ran_to_completion);
  EXPECT_EQ(statuses[0].code(), StatusCode::kKilled);
  EXPECT_EQ(statuses[1].code(), StatusCode::kFailure);
  EXPECT_LT(elapsed_seconds(start), 10.0);
}

TEST(ForallAbortTest, NoFailureMeansNoAbort) {
  // Without a failure no branch is killed: each passes checkpoints while a
  // sibling runs, and each completes with its own command's status.
  PosixExecutor executor;
  std::vector<std::function<Status()>> branches;
  for (int i = 0; i < 3; ++i) {
    branches.push_back([&executor] {
      const auto start = WallClock::now();
      while (elapsed_seconds(start) < 0.05) {
        if (executor.checkpoint()) return Status::failure("spurious stop");
      }
      return executor.run(command({"/bin/sh", "-c", "true"})).status;
    });
  }
  for (const Status& s : executor.run_parallel(std::move(branches))) {
    EXPECT_TRUE(s.ok()) << s.message();
  }
}

}  // namespace
}  // namespace ethergrid::posix
