// Cancellation under the one concurrency model: script fibers driven in
// wall-clock time.  A `try for` deadline reaches a loop that runs no
// command, terminate_all is safe inside a real signal handler and ends
// every session, a forall branch keeps a thread's stack depth, and every
// forcible kill reports its latency once, on its own process span.
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "obs/site.hpp"
#include "posix/posix_executor.hpp"
#include "shell/environment.hpp"
#include "shell/interpreter.hpp"

namespace ethergrid::posix {
namespace {

PosixExecutorOptions fast_options() {
  PosixExecutorOptions o;
  o.kill_grace = msec(200);
  o.poll_interval = msec(5);
  return o;
}

// Live (non-zombie) processes whose argv contains `arg`.
int processes_with_arg(const std::string& arg) {
  int count = 0;
  DIR* proc = ::opendir("/proc");
  if (!proc) return 0;
  while (struct dirent* entry = ::readdir(proc)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/") + entry->d_name + "/cmdline");
    const std::string cmdline((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    for (std::size_t at = 0; at < cmdline.size();) {
      const std::size_t end = cmdline.find('\0', at);
      if (cmdline.compare(at, end - at, arg) == 0) {
        ++count;
        break;
      }
      at = end == std::string::npos ? cmdline.size() : end + 1;
    }
  }
  ::closedir(proc);
  return count;
}

TEST(PosixCancellationTest, TryForPreemptsCommandFreeLoop) {
  // The loop never runs a command: only the interpreter's checkpoint lets
  // the wall-clock deadline in.
  PosixExecutor ex(fast_options());
  shell::Interpreter interp(ex);
  shell::Environment env;
  const TimePoint start = ex.now();
  Status s = interp.run_source(
      "try for 0.3 seconds\n"
      "  i = 0\n"
      "  while true\n"
      "    i = ${i} .add. 1\n"
      "  end\n"
      "end",
      env);
  EXPECT_EQ(s.code(), StatusCode::kTimeout) << s.to_string();
  EXPECT_LT(ex.now() - start, sec(2));
}

PosixExecutor* g_signal_target = nullptr;

void terminate_on_signal(int signo) {
  if (g_signal_target) g_signal_target->terminate_all(signo);
}

TEST(PosixCancellationTest, TerminateAllFromSignalHandlerEndsForallSessions) {
  PosixExecutor ex(fast_options());
  g_signal_target = &ex;
  struct sigaction sa, previous;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = terminate_on_signal;
  ASSERT_EQ(::sigaction(SIGTERM, &sa, &previous), 0);

  // raise() delivers to the calling thread, so the handler runs on the
  // helper while the test thread drives the forall.
  std::thread helper([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::raise(SIGTERM);
  });
  const std::string marker = "30." + std::to_string(::getpid());
  shell::Interpreter interp(ex);
  shell::Environment env;
  const TimePoint start = ex.now();
  Status s = interp.run_source(
      "forall t in a b\n  sleep " + marker + "\nend", env);
  const Duration took = ex.now() - start;
  helper.join();
  ::sigaction(SIGTERM, &previous, nullptr);
  g_signal_target = nullptr;

  EXPECT_TRUE(s.failed());
  EXPECT_LT(took, sec(5));
  EXPECT_EQ(processes_with_arg(marker), 0) << "a session outlived the call";
  // Terminated for good: no new session starts.
  shell::CommandInvocation later;
  later.argv = {"true"};
  EXPECT_EQ(ex.run(later).status.code(), StatusCode::kKilled);
}

TEST(PosixCancellationTest, ThousandNestedTriesInForallBranch) {
  // A forall branch is a fiber with a thread's default stack: the nesting
  // depth a branch supported on its own thread still fits.
  constexpr int kDepth = 1000;
  std::string script = "forall t in a\n";
  for (int i = 0; i < kDepth; ++i) script += "try 1 times\n";
  script += "echo deep\n";
  for (int i = 0; i < kDepth; ++i) script += "end\n";
  script += "end\n";

  PosixExecutor ex(fast_options());
  shell::Interpreter interp(ex);
  shell::Environment env;
  Status s = interp.run_source(script, env);
  EXPECT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(interp.output(), "deep\n");
}

TEST(PosixCancellationTest, CallsFromManyThreadsShareOneDriver) {
  // Whichever thread drives the kernel runs the calls the others hand it;
  // a driver that releases the kernel must not strand a call posted in
  // between.  Run under TSan, this checks every hand-off is ordered.
  PosixExecutor ex(fast_options());
  constexpr int kThreads = 4;
  constexpr int kCalls = 15;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ex, &ok, t] {
      for (int i = 0; i < kCalls; ++i) {
        shell::CommandInvocation echo;
        echo.argv = {"echo", std::to_string(t) + "/" + std::to_string(i)};
        const shell::CommandResult r = ex.run(echo);
        if (r.status.ok() &&
            r.out == std::to_string(t) + "/" + std::to_string(i) + "\n") {
          ++ok[t];
        }
        if (i % 5 == 0) ex.sleep(msec(1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], kCalls) << "thread " << t;
}

// Records process spans and kill events.
struct KillRecorder : obs::Observer {
  struct Process {
    std::uint64_t id, parent;
    std::string name;
  };
  struct Kill {
    std::uint64_t span;
    std::string site;
    double value;
  };
  std::vector<Process> processes;
  std::vector<std::uint64_t> commands;  // command span ids
  std::vector<Kill> kills;

  void on_span_begin(const obs::Span& span) override {
    if (span.kind == obs::SpanKind::kProcess) {
      processes.push_back({span.id, span.parent, std::string(span.name)});
    } else if (span.kind == obs::SpanKind::kCommand) {
      commands.push_back(span.id);
    }
  }
  void on_event(const obs::ObsEvent& event) override {
    if (event.kind != obs::ObsEvent::Kind::kKill) return;
    kills.push_back(
        {event.span, std::string(obs::site_name(event.site)), event.value});
  }
  const Process* process(std::uint64_t id) const {
    for (const Process& p : processes) {
      if (p.id == id) return &p;
    }
    return nullptr;
  }
};

TEST(PosixCancellationTest, EachForcibleKillReportsLatencyOnItsProcessSpan) {
  PosixExecutor ex(fast_options());
  KillRecorder recorder;
  shell::ObserverSet observers;
  observers.add(&recorder);
  ex.set_observers(&observers);
  shell::InterpreterOptions options;
  options.observers = &observers;
  shell::Interpreter interp(ex, options);
  shell::Environment env;

  // A sibling abort, then a deadline kill.
  EXPECT_TRUE(interp
                  .run_source("forall t in a b\n"
                              "  if ${t} .eq. a\n"
                              "    sleep 0.2\n"
                              "    false\n"
                              "  end\n"
                              "  if ${t} .eq. b\n"
                              "    sleep 30\n"
                              "  end\n"
                              "end",
                              env)
                  .failed());
  EXPECT_EQ(interp.run_source("try for 0.3 seconds\n  sleep 31\nend", env)
                .code(),
            StatusCode::kTimeout);
  ex.set_observers(nullptr);

  ASSERT_EQ(recorder.kills.size(), 2u);
  const std::string expected_site[] = {"posix.abort", "posix.deadline"};
  for (int i = 0; i < 2; ++i) {
    const KillRecorder::Kill& kill = recorder.kills[i];
    EXPECT_EQ(kill.site, expected_site[i]);
    EXPECT_GT(kill.value, 0.0);
    const KillRecorder::Process* process = recorder.process(kill.span);
    ASSERT_NE(process, nullptr) << kill.site << " is not on a process span";
    EXPECT_EQ(process->name, "sleep");
    EXPECT_NE(std::find(recorder.commands.begin(), recorder.commands.end(),
                        process->parent),
              recorder.commands.end())
        << kill.site << "'s process span is not under a command span";
  }
}

}  // namespace
}  // namespace ethergrid::posix
