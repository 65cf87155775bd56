// End-to-end ftsh semantics over the simulated executor.
#include "shell/interpreter.hpp"

#include <gtest/gtest.h>

#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"

namespace ethergrid::shell {
namespace {

struct RunResult {
  Status status;
  std::string output;
  double elapsed = 0;  // virtual seconds
};

// Runs src in a fresh simulation.  `setup` may register commands / seed the
// VFS; `env` (optional) allows pre-setting and post-inspecting variables.
RunResult run_script(const std::string& src,
                     const std::function<void(SimExecutor&)>& setup = {},
                     Environment* env = nullptr,
                     InterpreterOptions options = {}) {
  sim::Kernel kernel(options.seed);
  SimExecutor executor(kernel);
  if (setup) setup(executor);
  Environment local_env;
  Environment* e = env ? env : &local_env;
  RunResult result;
  kernel.spawn("script", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    Interpreter interpreter(executor, options);
    result.status = interpreter.run_source(src, *e);
    result.output = interpreter.output();
  });
  kernel.run();
  result.elapsed = to_seconds(kernel.now());
  return result;
}

TEST(InterpreterTest, EchoProducesOutput) {
  RunResult r = run_script("echo hello world");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "hello world\n");
}

TEST(InterpreterTest, GroupFailsFast) {
  RunResult r = run_script("echo one\nfalse\necho two");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.output, "one\n");  // 'two' never ran
}

TEST(InterpreterTest, UnknownCommandFails) {
  RunResult r = run_script("no-such-program");
  EXPECT_TRUE(r.status.failed());
}

TEST(InterpreterTest, VariableExpansion) {
  Environment env;
  env.assign("server", "xxx");
  RunResult r = run_script("echo \"got file from ${server}\"", {}, &env);
  EXPECT_EQ(r.output, "got file from xxx\n");
}

TEST(InterpreterTest, UndefinedVariableFailsCommand) {
  RunResult r = run_script("echo ${nope}");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(InterpreterTest, SingleQuotesSuppressExpansion) {
  RunResult r = run_script("echo '${nope}'");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "${nope}\n");
}

TEST(InterpreterTest, TrySucceedsImmediately) {
  RunResult r = run_script("try 5 times\n  echo hi\nend");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "hi\n");
  EXPECT_EQ(r.elapsed, 0.0);
}

TEST(InterpreterTest, TryRetriesUntilAttemptsExhausted) {
  int calls = 0;
  RunResult r = run_script("try 3 times\n  always-fail\nend",
                           [&](SimExecutor& ex) {
                             ex.register_command(
                                 "always-fail",
                                 [&](sim::Context&, const CommandInvocation&) {
                                   ++calls;
                                   return CommandResult{
                                       Status::failure("nope"), "", ""};
                                 });
                           });
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(calls, 3);
  // Two backoffs: 1-2s + 2-4s.
  EXPECT_GE(r.elapsed, 3.0);
  EXPECT_LT(r.elapsed, 6.0);
}

TEST(InterpreterTest, TryForTimeAbortsWedgedCommand) {
  // The heart of the paper: the running procedure is forcibly terminated
  // when the limit expires.
  RunResult r = run_script("try for 5 seconds\n  sleep 1 hour\nend");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.status.code(), StatusCode::kTimeout);
  EXPECT_EQ(r.elapsed, 5.0);
}

TEST(InterpreterTest, TryForOrTimesWhicheverFirst) {
  RunResult r = run_script("try for 1 hour or 2 times\n  false\nend");
  EXPECT_TRUE(r.status.failed());
  EXPECT_NE(r.status.code(), StatusCode::kTimeout);
  EXPECT_LT(r.elapsed, 10.0);  // one backoff only
}

TEST(InterpreterTest, TryLimitsFromVariables) {
  Environment env;
  env.assign("t", "5");
  env.assign("n", "2");
  RunResult r =
      run_script("try for ${t} seconds or ${n} times\n  sleep 1m\nend", {},
                 &env);
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.elapsed, 5.0);
}

TEST(InterpreterTest, CatchHandlesFailure) {
  RunResult r = run_script(
      "try 2 times\n  false\ncatch\n  echo cleaned\nend\necho after");
  EXPECT_TRUE(r.status.ok());  // catch handled it
  EXPECT_EQ(r.output, "cleaned\nafter\n");
}

TEST(InterpreterTest, CatchCanRethrow) {
  // The paper's idiom: clean up, then `failure`.
  RunResult r = run_script(
      "try 2 times\n  false\ncatch\n  echo cleaned\n  failure\nend");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.output, "cleaned\n");
}

TEST(InterpreterTest, CatchSkippedOnSuccess) {
  RunResult r = run_script("try 2 times\n  echo fine\ncatch\n  echo bad\nend");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "fine\n");
}

TEST(InterpreterTest, NestedTryOuterLimitDominates) {
  // Inner try wants an hour; the outer 10 s budget cuts through it.
  RunResult r = run_script(
      "try for 10 seconds\n  try for 1 hour\n    sleep 2 hours\n  end\nend");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.elapsed, 10.0);
}

TEST(InterpreterTest, NestedTryInnerTimeoutRetriedByOuter) {
  int calls = 0;
  RunResult r = run_script(
      "try for 1 hour or 2 times\n"
      "  try for 3 seconds\n    wedge\n  end\nend",
      [&](SimExecutor& ex) {
        ex.register_command("wedge", [&](sim::Context& ctx,
                                         const CommandInvocation&) {
          ++calls;
          ctx.sleep(minutes(10));
          return CommandResult{Status::success(), "", ""};
        });
      });
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(calls, 2);  // outer retried the inner timeout once
}

TEST(InterpreterTest, ForanyStopsAtFirstSuccess) {
  RunResult r = run_script(
      "forany host in xxx yyy zzz\n"
      "  probe ${host}\n"
      "end\n"
      "echo got ${host}",
      [&](SimExecutor& ex) {
        ex.register_command("probe", [](sim::Context&,
                                        const CommandInvocation& inv) {
          if (inv.argv[1] == "yyy") {
            return CommandResult{Status::success(), "", ""};
          }
          return CommandResult{Status::unavailable(inv.argv[1]), "", ""};
        });
      });
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "got yyy\n");  // winning value persists
}

TEST(InterpreterTest, ForanyFailsWhenAllFail) {
  RunResult r = run_script("forany x in a b c\n  false\nend");
  EXPECT_TRUE(r.status.failed());
}

TEST(InterpreterTest, ForallRunsBranchesInParallel) {
  RunResult r = run_script("forall t in 5 5 5\n  sleep ${t} seconds\nend");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.elapsed, 5.0);  // concurrent, not 15
}

TEST(InterpreterTest, ForallAbortsSiblingsOnFailure) {
  RunResult r = run_script(
      "forall t in quick slow\n  job ${t}\nend",
      [&](SimExecutor& ex) {
        ex.register_command("job", [](sim::Context& ctx,
                                      const CommandInvocation& inv) {
          if (inv.argv[1] == "quick") {
            ctx.sleep(sec(1));
            return CommandResult{Status::failure("quick died"), "", ""};
          }
          ctx.sleep(hours(1));
          return CommandResult{Status::success(), "", ""};
        });
      });
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.elapsed, 1.0);  // the slow branch was killed, not awaited
}

TEST(InterpreterTest, ForallBranchVariableIsBranchLocal) {
  RunResult r = run_script(
      "x=outer\n"
      "forall x in a b\n  true\nend\n"
      "echo ${x}");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "outer\n");
}

TEST(InterpreterTest, WordSplittingFansOutUnquotedVariables) {
  Environment env;
  env.assign("hosts", "xxx yyy zzz");
  int probes = 0;
  RunResult r = run_script("forany h in ${hosts}\n  probe ${h}\nend",
                           [&](SimExecutor& ex) {
                             ex.register_command(
                                 "probe",
                                 [&](sim::Context&, const CommandInvocation&) {
                                   ++probes;
                                   return CommandResult{Status::failure("no"),
                                                        "", ""};
                                 });
                           },
                           &env);
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(probes, 3);  // three alternatives, not one
}

TEST(InterpreterTest, QuotedVariablesDoNotSplit) {
  Environment env;
  env.assign("hosts", "xxx yyy zzz");
  int probes = 0;
  RunResult r = run_script("forany h in \"${hosts}\"\n  probe\nend",
                           [&](SimExecutor& ex) {
                             ex.register_command(
                                 "probe",
                                 [&](sim::Context&, const CommandInvocation&) {
                                   ++probes;
                                   return CommandResult{Status::failure("no"),
                                                        "", ""};
                                 });
                           },
                           &env);
  EXPECT_EQ(probes, 1);
}

TEST(InterpreterTest, IfElseNumericComparison) {
  Environment env;
  env.assign("n", "500");
  RunResult r = run_script(
      "if ${n} .lt. 1000\n  echo low\nelse\n  echo high\nend", {}, &env);
  EXPECT_EQ(r.output, "low\n");
  env.assign("n", "5000");
  r = run_script("if ${n} .lt. 1000\n  echo low\nelse\n  echo high\nend", {},
                 &env);
  EXPECT_EQ(r.output, "high\n");
}

TEST(InterpreterTest, IfConditionTypeErrorFails) {
  RunResult r = run_script("if abc .lt. 3\n  echo x\nend");
  EXPECT_TRUE(r.status.failed());
}

TEST(InterpreterTest, WhileLoopWithArithmetic) {
  RunResult r = run_script(
      "i=0\n"
      "while ${i} .lt. 3\n"
      "  echo tick ${i}\n"
      "  i = ${i} .add. 1\n"
      "end");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "tick 0\ntick 1\ntick 2\n");
}

TEST(InterpreterTest, StringEqualityComparison) {
  RunResult r = run_script("if abc .eq. abc\n  echo same\nend");
  EXPECT_EQ(r.output, "same\n");
  r = run_script("if 07 .eq. 7\n  echo numeric\nend");
  EXPECT_EQ(r.output, "numeric\n");  // both parse as ints: numeric equality
}

TEST(InterpreterTest, BooleanOperators) {
  RunResult r = run_script(
      "if 1 .lt. 2 .and. .not. 3 .lt. 2\n  echo yes\nend");
  EXPECT_EQ(r.output, "yes\n");
}

TEST(InterpreterTest, DivisionByZeroFails) {
  RunResult r = run_script("x = 1 .div. 0");
  EXPECT_TRUE(r.status.failed());
}

TEST(InterpreterTest, VariableCaptureRedirect) {
  // The paper: run-simulation ->& tmp ... cat -< tmp
  RunResult r = run_script(
      "run-simulation ->& tmp\n"
      "cat -< tmp",
      [&](SimExecutor& ex) {
        ex.register_command("run-simulation",
                            [](sim::Context&, const CommandInvocation&) {
                              return CommandResult{Status::success(),
                                                   "result 42\n", "warn\n"};
                            });
      });
  EXPECT_TRUE(r.status.ok());
  // ->& merged stderr into the capture; trailing newline stripped like $().
  EXPECT_EQ(r.output, "result 42\nwarn");
}

TEST(InterpreterTest, CaptureNotAssignedOnFailure) {
  Environment env;
  env.assign("tmp", "stale");
  RunResult r = run_script("bad-cmd -> tmp\n", [&](SimExecutor& ex) {
    ex.register_command("bad-cmd", [](sim::Context&,
                                      const CommandInvocation&) {
      return CommandResult{Status::failure("died"), "partial", ""};
    });
  }, &env);
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(env.get("tmp"), "stale");  // partial output not committed
}

TEST(InterpreterTest, FileRedirectionRoundTrip) {
  SimExecutor* captured = nullptr;
  RunResult r = run_script(
      "echo data > file.txt\n"
      "cat < file.txt",
      [&](SimExecutor& ex) { captured = &ex; });
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "data\n");
}

TEST(InterpreterTest, AppendRedirection) {
  std::string contents;
  RunResult r = run_script(
      "echo one > f\n"
      "echo two >> f\n"
      "cat < f");
  EXPECT_EQ(r.output, "one\ntwo\n");
}

TEST(InterpreterTest, CutFileNrIdiomWorks) {
  // The actual Ethernet submitter fragment, with a fake /proc reader.
  RunResult r = run_script(
      "read-file-nr -> n\n"
      "if ${n} .lt. 1000\n  failure\nelse\n  echo submit\nend",
      [&](SimExecutor& ex) {
        ex.register_command("read-file-nr",
                            [](sim::Context&, const CommandInvocation&) {
                              return CommandResult{Status::success(), "512",
                                                   ""};
                            });
      });
  EXPECT_TRUE(r.status.failed());  // 512 < 1000 => failure, try would defer
}

TEST(InterpreterTest, FunctionDefinitionAndCall) {
  RunResult r = run_script(
      "function greet name\n"
      "  echo hello ${name}\n"
      "end\n"
      "greet world\n"
      "greet again");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "hello world\nhello again\n");
}

// A function's body lives in the arena of the script that defined it; the
// function table keeps that script alive after its ParseResult is gone.
TEST(InterpreterTest, FunctionOutlivesItsDefiningScript) {
  sim::Kernel kernel;
  SimExecutor executor(kernel);
  Environment env;
  Status defined;
  Status called;
  std::string output;
  kernel.spawn("script", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    Interpreter interpreter(executor);
    {
      const ParseResult a = parse_script(
          "function greet name\n  echo hello ${name}\nend\n");
      ASSERT_TRUE(a.status.ok());
      defined = interpreter.run(*a.script, env);
    }
    // Reuse the memory a dropped script would have freed.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(parse_script("echo filler filler filler").status.ok());
    }
    const ParseResult b = parse_script("greet world\ngreet again");
    ASSERT_TRUE(b.status.ok());
    called = interpreter.run(*b.script, env);
    output = interpreter.output();
  });
  kernel.run();
  EXPECT_TRUE(defined.ok()) << defined.to_string();
  EXPECT_TRUE(called.ok()) << called.to_string();
  EXPECT_EQ(output, "hello world\nhello again\n");
}

TEST(InterpreterTest, FunctionArityMismatchFails) {
  RunResult r = run_script(
      "function f a b\n  true\nend\n"
      "f onlyone");
  EXPECT_TRUE(r.status.failed());
}

TEST(InterpreterTest, FunctionParametersAreLocal) {
  Environment env;
  env.assign("name", "outer");
  RunResult r = run_script(
      "function f name\n  echo ${name}\nend\n"
      "f inner\n"
      "echo ${name}",
      {}, &env);
  EXPECT_EQ(r.output, "inner\nouter\n");
}

TEST(InterpreterTest, ReturnExitsFunctionEarlyWithSuccess) {
  RunResult r = run_script(
      "function f\n"
      "  echo before\n"
      "  return\n"
      "  echo after\n"
      "end\n"
      "f\n"
      "echo done");
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.output, "before\ndone\n");
}

TEST(InterpreterTest, FunctionFailurePropagates) {
  RunResult r = run_script(
      "function f\n  failure\nend\n"
      "f\n"
      "echo unreached");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.output, "");
}

TEST(InterpreterTest, FunctionsCanRetryInsideTry) {
  RunResult r = run_script(
      "function fetch host\n"
      "  probe ${host}\n"
      "end\n"
      "try for 1 hour or 3 times\n"
      "  fetch xxx\n"
      "end",
      [&](SimExecutor& ex) {
        int calls = 0;
        ex.register_command(
            "probe",
            [calls](sim::Context&, const CommandInvocation&) mutable {
              ++calls;
              if (calls < 3) {
                return CommandResult{Status::failure("flap"), "", ""};
              }
              return CommandResult{Status::success(), "", ""};
            });
      });
  EXPECT_TRUE(r.status.ok());
}

TEST(InterpreterTest, ExistsOperator) {
  RunResult r = run_script(
      "if .exists. /data/file\n  echo yes\nelse\n  echo no\nend",
      [&](SimExecutor& ex) { ex.write_file("/data/file", "x"); });
  EXPECT_EQ(r.output, "yes\n");
  r = run_script("if .exists. /data/file\n  echo yes\nelse\n  echo no\nend");
  EXPECT_EQ(r.output, "no\n");
}

TEST(InterpreterTest, DeterministicAcrossRuns) {
  const char* src =
      "try for 1 hour or 4 times\n  flaky 80\nend";
  RunResult a = run_script(src);
  RunResult b = run_script(src);
  EXPECT_EQ(a.status.ok(), b.status.ok());
  EXPECT_EQ(a.elapsed, b.elapsed);
}

TEST(InterpreterTest, PaperHeadlineExampleRuns) {
  // "this fragment retries a program for up to one hour in three different
  //  configurations for five minutes each"
  int attempts = 0;
  RunResult r = run_script(
      "try for 1 hour\n"
      "  forany host in xxx yyy zzz\n"
      "    try for 5 minutes\n"
      "      fetch-file ${host} filename\n"
      "    end\n"
      "  end\n"
      "end",
      [&](SimExecutor& ex) {
        ex.register_command(
            "fetch-file", [&](sim::Context& ctx, const CommandInvocation& inv) {
              ++attempts;
              if (inv.argv[1] == "zzz") {
                ctx.sleep(sec(2));
                return CommandResult{Status::success(), "", ""};
              }
              ctx.sleep(minutes(10));  // wedged server: 5 min limit trips
              return CommandResult{Status::success(), "", ""};
            });
      });
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(attempts, 3);
  // Two 5-minute timeouts plus the 2 s success.
  EXPECT_GE(r.elapsed, 602.0);
  EXPECT_LT(r.elapsed, 620.0);
}

TEST(InterpreterTest, StderrGoesToDiagnostics) {
  sim::Kernel kernel;
  SimExecutor executor(kernel);
  executor.register_command("warny",
                            [](sim::Context&, const CommandInvocation&) {
                              return CommandResult{Status::success(), "out\n",
                                                   "err\n"};
                            });
  Environment env;
  std::string diag;
  kernel.spawn("script", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    Interpreter interpreter(executor);
    ASSERT_TRUE(interpreter.run_source("warny", env).ok());
    EXPECT_EQ(interpreter.output(), "out\n");
    diag = interpreter.diagnostics();
  });
  kernel.run();
  EXPECT_EQ(diag, "err\n");
}

TEST(InterpreterTest, CustomStderrSinkSeesEachChunkExactlyOnce) {
  // Regression: with a custom stderr consumer installed the chunk used to
  // reach BOTH the sink and the diagnostics accumulator.  Routing is
  // single-path now: observers always see it, accumulation only while the
  // capture flag is on.
  sim::Kernel kernel;
  SimExecutor executor(kernel);
  executor.register_command("warny",
                            [](sim::Context&, const CommandInvocation&) {
                              return CommandResult{Status::success(), "",
                                                   "err\n"};
                            });
  int chunks_seen = 0;
  std::string sunk;
  obs::StreamObserver streams(nullptr, [&](std::string_view text) {
    ++chunks_seen;
    sunk.append(text);
  });
  ObserverSet observers;
  observers.add(&streams);
  InterpreterOptions options;
  options.observers = &observers;
  options.capture_stderr = false;  // the sink owns the stream
  std::string diag;
  kernel.spawn("script", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    Interpreter interpreter(executor, options);
    Environment env;
    ASSERT_TRUE(interpreter.run_source("warny", env).ok());
    diag = interpreter.diagnostics();
  });
  kernel.run();
  EXPECT_EQ(chunks_seen, 1);
  EXPECT_EQ(sunk, "err\n");
  EXPECT_EQ(diag, "");  // not ALSO accumulated
}

TEST(InterpreterTest, BackChannelLogsFailures) {
  CapturingSink sink;
  Logger logger(LogLevel::kDebug);
  logger.set_sink(sink.as_sink());
  // The Logger rides the observability channel via LoggerObserver now.
  obs::LoggerObserver bridge(&logger);
  ObserverSet observers;
  observers.add(&bridge);
  InterpreterOptions options;
  options.observers = &observers;
  RunResult r = run_script("try 2 times\n  false\nend", {}, nullptr, options);
  EXPECT_TRUE(r.status.failed());
  bool saw_command_failure = false;
  bool saw_try_summary = false;
  for (const auto& rec : sink.records()) {
    if (rec.message.find("'false' failed") != std::string::npos) {
      saw_command_failure = true;
    }
    if (rec.message.find("try at line") != std::string::npos) {
      saw_try_summary = true;
    }
  }
  EXPECT_TRUE(saw_command_failure);
  EXPECT_TRUE(saw_try_summary);
}

}  // namespace
}  // namespace ethergrid::shell
