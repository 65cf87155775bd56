// Golden back-channel log: the records a LoggerObserver delivers to a
// Logger for the scripts below -- level, virtual time, component and text,
// in delivery order -- must equal tests/shell/golden/log_records.txt byte
// for byte.  The scripts reach every log site of the interpreter (a failed
// command, a try summary with backoff, a catch entry, a failed forany
// alternative, an evaluation error) and the bridge's own span-derived
// records, at two logger thresholds.
//
// On a mismatch the actual records are written to log_golden.actual.txt in
// the working directory; diff it against the golden file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/sinks.hpp"
#include "shell/interpreter.hpp"
#include "shell/sim_executor.hpp"
#include "sim/kernel.hpp"
#include "util/log.hpp"

namespace ethergrid::shell {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const char* const kScripts[] = {
    // A failed command.
    "false",
    // A try that fails every attempt and backs off between them.
    "try 3 times\n  false\nend",
    // A try that succeeds at once: the summary with no backoff.
    "try 1 times\n  true\nend",
    // A try with a deadline that cuts a command off.
    "try for 2 seconds\n  sleep 10\nend",
    // A catch entry.
    "try 2 times\n  fail boom\ncatch\n  echo caught\nend",
    // Failed forany alternatives before a winner.
    "forany x in a b c\n  if ${x} .eq. c\n    true\n  else\n    false\n"
    "  end\nend",
    // A forany whose alternatives all fail.
    "forany host in h1 h2\n  fail \"host ${host} down\"\nend",
    // Evaluation errors: an undefined variable, a type error.
    "echo ${undefined}",
    "x = .not. 7",
    // A failure inside a forall branch.
    "forall p in 1 2\n  if ${p} .eq. 2\n    false\n  end\nend",
};

std::string run_logged(const char* source, LogLevel threshold) {
  CapturingSink sink;
  Logger logger(threshold);
  logger.set_sink(sink.as_sink());
  obs::LoggerObserver bridge(&logger);
  ObserverSet observers;
  observers.add(&bridge);
  InterpreterOptions options;
  options.observers = &observers;

  sim::Kernel kernel(options.seed);
  SimExecutor executor(kernel);
  executor.set_observers(&observers);
  kernel.spawn("script", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    Interpreter interpreter(executor, options);
    Environment env;
    (void)interpreter.run_source(source, env);
  });
  kernel.run();

  std::string out;
  for (const LogRecord& rec : sink.records()) {
    char head[64];
    std::snprintf(head, sizeof(head), "%s %lld ",
                  std::string(log_level_name(rec.level)).c_str(),
                  static_cast<long long>(rec.time.time_since_epoch().count()));
    out += head;
    out += rec.component;
    out += ": ";
    out += rec.message;
    out += '\n';
  }
  return out;
}

std::string render_all() {
  std::string out;
  for (LogLevel threshold : {LogLevel::kDebug, LogLevel::kInfo}) {
    for (const char* source : kScripts) {
      out += "=== ";
      out += log_level_name(threshold);
      out += " | ";
      for (const char* c = source; *c; ++c) {
        out += *c == '\n' ? std::string("\\n") : std::string(1, *c);
      }
      out += '\n';
      out += run_logged(source, threshold);
    }
  }
  return out;
}

TEST(LogGoldenTest, RecordsMatchGolden) {
  const std::string path = std::string(ETHERGRID_SOURCE_DIR) +
                           "/tests/shell/golden/log_records.txt";
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "cannot read " << path;
  const std::string actual = render_all();
  if (actual != golden) {
    std::ofstream("log_golden.actual.txt", std::ios::binary) << actual;
  }
  EXPECT_EQ(actual, golden) << "log records changed; see log_golden.actual.txt";
}

}  // namespace
}  // namespace ethergrid::shell
