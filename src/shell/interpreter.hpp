// The ftsh interpreter.
//
// Evaluation model (paper section 4):
//  * a procedure, atomic or compound, does not return a value -- it succeeds
//    or fails;
//  * a group fails at its first failing member;
//  * `try` retries its group under exponential backoff within a time and/or
//    attempt budget, forcibly terminating work in flight when the budget
//    expires; `catch` handles the failure;
//  * `forany` runs alternatives in order to first success; `forall` runs
//    them in parallel and fails (aborting stragglers) if any fails;
//  * failures are untyped: the interpreter never branches on *why*
//    something failed, but logs the details to the back channel.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backoff.hpp"
#include "shell/ast.hpp"
#include "shell/environment.hpp"
#include "shell/executor.hpp"
#include "shell/observer.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ethergrid::shell {

struct InterpreterOptions {
  // Backoff between try attempts; the paper default (1 s, x2, 1 h cap,
  // jitter [1,2)).
  core::BackoffPolicy backoff = core::BackoffPolicy::paper_default();
  // RNG seed for backoff jitter (forked per forall branch).
  std::uint64_t seed = 1;
  // THE back channel: every span (script / try / attempt / forany / forall
  // / command / function), point event (backoff decisions), output chunk,
  // and log line the interpreter produces goes to this one sink.  Replaces
  // the old scattered fields (logger, stdout_sink, stderr_sink, trace,
  // audit) -- compose obs::LoggerObserver, obs::StreamObserver,
  // obs::XTraceObserver, obs::TraceRecorder, obs::MetricsRegistry, or an
  // AuditLog into the set instead (shell::Session does this wiring).
  // nullptr = observability off; the hot path is a single null check.
  // Not owned; must outlive the interpreter's runs.
  ObserverSet* observers = nullptr;
  // When false, uncaptured command stdout (resp. stderr) is NOT accumulated
  // into output() (resp. diagnostics()); it still reaches the observers.
  // Session clears the flag for any stream a StreamObserver handles, so
  // each output chunk flows through exactly one consumer path.
  bool capture_stdout = true;
  bool capture_stderr = true;
};

class Interpreter {
 public:
  Interpreter(Executor& executor, InterpreterOptions options = {});

  // Evaluates a script in the given root environment.  The returned status
  // is the script's overall success/failure.
  Status run(const Script& script, Environment& env);

  // Parse + run convenience.
  Status run_source(std::string_view source, Environment& env);

  // Accumulated uncaptured stdout (when no custom sink was installed).
  std::string output() const;
  // Accumulated stderr (when no custom sink was installed).
  std::string diagnostics() const;

 private:
  struct EvalCtx;   // per-branch evaluation state (env, deadline, rng)
  struct Scratch;   // per-branch reusable command-path buffers

  enum class Flow { kNormal, kReturn };
  struct EvalResult {
    Status status;
    Flow flow = Flow::kNormal;
    static EvalResult ok() { return {Status::success(), Flow::kNormal}; }
    static EvalResult from(Status s) { return {std::move(s), Flow::kNormal}; }
  };

  EvalResult eval_group(const Group& group, EvalCtx& ctx);
  EvalResult eval_statement(const Statement& stmt, EvalCtx& ctx);
  EvalResult eval_command(const CommandStmt& cmd, EvalCtx& ctx);
  EvalResult eval_function_call(const CommandStmt& cmd,
                                const FunctionDef& function,
                                const std::vector<std::string>& argv,
                                EvalCtx& ctx);
  EvalResult eval_try(const TryStmt& t, EvalCtx& ctx);
  EvalResult eval_for(const ForStmt& f, EvalCtx& ctx);
  EvalResult eval_if(const IfStmt& stmt, EvalCtx& ctx);
  EvalResult eval_while(const WhileStmt& stmt, EvalCtx& ctx);
  EvalResult eval_assignment(const AssignmentStmt& stmt, EvalCtx& ctx);

  // Word expansion.  Throws EvalError (internal) on undefined variables.
  std::string expand_word(const Word& word, EvalCtx& ctx);
  void expand_word_into(const Word& word, EvalCtx& ctx, std::string& out);
  // Expands a word list with whitespace splitting of unquoted variables.
  // The _into form clears and refills `out`, reusing its capacity -- the
  // command hot path expands straight into the scratch invocation's argv.
  std::vector<std::string> expand_words(std::span<const Word> words,
                                        EvalCtx& ctx);
  void expand_words_into(std::span<const Word> words, EvalCtx& ctx,
                         std::vector<std::string>& out);

  // Expression evaluation; results are strings ("true"/"false" for boolean
  // operators).  Throws EvalError on type errors.
  std::string eval_expr(const Expr& expr, EvalCtx& ctx);
  bool eval_condition(const Expr& expr, EvalCtx& ctx);

  void emit_stdout(std::string_view text);
  void emit_stderr(std::string_view text);
  // Emits a log line; `render(std::string*)` appends its message and runs
  // only if an observer reads the line.
  template <class Render>
  void log(LogLevel level, const Render& render);
  // The interned "try:<line>" site of a try statement's backoff events,
  // interned once per line per interpreter.
  obs::SiteId try_site(int line);

  Executor* executor_;
  InterpreterOptions options_;
  ObserverSet* observers_;  // = options_.observers; nullptr = off
  // Render-lane allocator for forall branches: each branch gets a fresh
  // lane so concurrent spans draw as parallel rows.  Allocation follows
  // branch creation order, which the sim kernel makes deterministic.
  std::uint64_t next_track_ = 0;
  std::vector<obs::SiteId> try_sites_;  // by line; kSiteNone = not interned
  std::string output_;
  std::string diagnostics_;
};

}  // namespace ethergrid::shell
