// ftsh: the fault tolerant shell, over real POSIX processes.
//
// Usage:
//   ftsh script.ftsh [args...]     run a script file
//   ftsh -c 'commands...' [args]   run commands from the argument
//   ftsh -n script.ftsh            parse only (syntax check)
//   ftsh -x ...                    trace: print each command as it runs
//   ftsh -a ...                    print the audit report (failure
//                                  frequencies per site) to stderr at exit
//   ftsh -l LEVEL ...              back-channel log level
//                                  (debug|info|warn|error; default warn)
//   ftsh --trace-out FILE ...      write a Perfetto/Chrome trace-event JSON
//                                  of the run (load at ui.perfetto.dev)
//
// Script arguments are available as ${1}..${n}, with ${0} the script name
// and ${#} the count.  Nested-shell protocol per the paper: on SIGTERM,
// ftsh terminates its own children's sessions before exiting.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "posix/posix_executor.hpp"
#include "shell/parser.hpp"
#include "shell/session.hpp"

using namespace ethergrid;

namespace {

posix::PosixExecutor* g_executor = nullptr;
volatile sig_atomic_t g_terminated = 0;

void on_sigterm(int) {
  g_terminated = 1;
  // "ftsh handles this gracefully by trapping the warning SIGTERMs from its
  //  parent and then reacting by killing its own children."
  // terminate_all is async-signal-safe: it flags the executor and wakes its
  // driver, which kills every session and stops the script.
  if (g_executor) g_executor->terminate_all(SIGTERM);
}

int usage() {
  std::fprintf(stderr,
               "usage: ftsh [-n] [-l level] [--trace-out FILE] "
               "script.ftsh [args...]\n"
               "       ftsh [-l level] [--trace-out FILE] -c 'commands' "
               "[args...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool parse_only = false;
  bool from_argument = false;
  bool print_audit = false;
  bool trace = false;
  std::string trace_out;
  LogLevel level = LogLevel::kWarn;

  int arg = 1;
  for (; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "-n") == 0) {
      parse_only = true;
    } else if (std::strcmp(argv[arg], "-a") == 0) {
      print_audit = true;
    } else if (std::strcmp(argv[arg], "-x") == 0) {
      trace = true;
    } else if (std::strcmp(argv[arg], "--trace-out") == 0 && arg + 1 < argc) {
      trace_out = argv[++arg];
    } else if (std::strcmp(argv[arg], "-c") == 0) {
      from_argument = true;
      ++arg;
      break;
    } else if (std::strcmp(argv[arg], "-l") == 0 && arg + 1 < argc) {
      std::string name = argv[++arg];
      if (name == "debug") {
        level = LogLevel::kDebug;
      } else if (name == "info") {
        level = LogLevel::kInfo;
      } else if (name == "warn") {
        level = LogLevel::kWarn;
      } else if (name == "error") {
        level = LogLevel::kError;
      } else {
        return usage();
      }
    } else {
      break;
    }
  }
  if (arg >= argc) return usage();

  std::string source;
  std::string script_name;
  if (from_argument) {
    source = argv[arg];
    script_name = "-c";
  } else {
    script_name = argv[arg];
    std::ifstream in(script_name);
    if (!in) {
      std::fprintf(stderr, "ftsh: cannot open %s\n", script_name.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }
  ++arg;

  shell::ParseResult parsed = shell::parse_script(source);
  if (parsed.status.failed()) {
    std::fprintf(stderr, "ftsh: %s: %.*s\n", script_name.c_str(),
                 int(parsed.status.message().size()),
                 parsed.status.message().data());
    return 2;
  }
  if (parse_only) return 0;

  posix::PosixExecutor executor;
  g_executor = &executor;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = on_sigterm;
  sigaction(SIGTERM, &sa, nullptr);

  Logger logger(level);
  logger.set_sink([](const LogRecord& rec) {
    std::fprintf(stderr, "ftsh[%s] %.*s: %s\n",
                 format_duration(rec.time - kEpoch).c_str(),
                 int(log_level_name(rec.level).size()),
                 log_level_name(rec.level).data(), rec.message.c_str());
  });

  shell::SessionOptions options;
  options.logger = &logger;
  options.collect_audit = print_audit;
  options.collect_trace = !trace_out.empty();
  options.trace_process_name = "ftsh " + script_name;
  options.xtrace = trace;
  options.stdout_sink = [](std::string_view text) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fflush(stdout);
  };
  options.stderr_sink = [](std::string_view text) {
    std::fwrite(text.data(), 1, text.size(), stderr);
  };

  shell::Session session(executor, options);
  shell::Environment& env = session.environment();
  env.define("0", script_name);
  int positional = 0;
  for (; arg < argc; ++arg) {
    env.define(std::to_string(++positional), argv[arg]);
  }
  env.define("#", std::to_string(positional));

  Status status = session.run(*parsed.script);
  if (print_audit) {
    std::fprintf(stderr, "--- ftsh audit ---\n%s",
                 session.audit()->report().c_str());
  }
  if (!trace_out.empty()) {
    Status wrote = session.write_trace(trace_out);
    if (wrote.failed()) {
      std::fprintf(stderr, "ftsh: --trace-out: %s\n",
                   wrote.to_string().c_str());
    }
  }
  if (g_terminated) return 143;  // died of SIGTERM, children cleaned up
  if (status.failed()) {
    std::fprintf(stderr, "ftsh: %s\n", status.to_string().c_str());
    return 1;
  }
  return 0;
}
