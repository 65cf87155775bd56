#include "shell/interpreter.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "core/retry.hpp"
#include "shell/parser.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace ethergrid::shell {

namespace {

// Internal: unwinds evaluation of one statement; converted to a failed
// status (never escapes the interpreter).
struct EvalError {
  Status status;
};

[[noreturn]] void eval_fail(Status status) { throw EvalError{std::move(status)}; }

}  // namespace

// Per-branch reusable buffers for the command hot path.  One Scratch lives
// on each branch's stack (the run() frame, each forall branch body); nested
// evaluation on the same branch shares it.  That sharing is safe because an
// invocation is fully consumed -- executor run, span end, output routing --
// before the next command on the same branch expands into the buffers, and
// the one consumer that holds the expanded argv across nested evaluation
// (the function-call path) reads it only up to parameter binding, before
// the body starts clobbering the scratch.
struct Interpreter::Scratch {
  CommandInvocation inv;
  std::string detail;  // joined argv backing the command span's detail view
};

// Per-branch evaluation state.  forall branches get their own copy with a
// child environment and a forked RNG stream; everything else threads one
// instance through by reference.
struct Interpreter::EvalCtx {
  Environment* env;
  TimePoint deadline = TimePoint::max();  // earliest enclosing try deadline
  Rng rng;
  int function_depth = 0;
  std::uint64_t span = 0;   // enclosing span id (0 = none / observability off)
  std::uint64_t track = 0;  // trace render lane (forall branches diverge)
  Scratch* scratch = nullptr;
};

Interpreter::Interpreter(Executor& executor, InterpreterOptions options)
    : executor_(&executor),
      options_(std::move(options)),
      observers_(options_.observers) {}

Status Interpreter::run(const Script& script, Environment& env) {
  Scratch scratch;
  EvalCtx ctx{&env, TimePoint::max(), Rng(options_.seed), 0};
  ctx.scratch = &scratch;
  obs::Span span;
  if (observers_) {
    span.kind = obs::SpanKind::kScript;
    span.start = executor_->now();
    observers_->begin_span(span);
    ctx.span = span.id;
  }
  EvalResult result = eval_group(script.top, ctx);
  if (observers_) {
    span.end = executor_->now();
    span.status = result.status;
    observers_->end_span(span);
  }
  return result.status;
}

Status Interpreter::run_source(std::string_view source, Environment& env) {
  ParseResult parsed = parse_script(source);
  if (parsed.status.failed()) return parsed.status;
  return run(*parsed.script, env);
}

std::string Interpreter::output() const { return output_; }

std::string Interpreter::diagnostics() const { return diagnostics_; }

// Output routing discipline: a chunk reaches the observers (when any are
// installed) and is accumulated only while the matching capture flag is on.
// Session clears the flag for streams a StreamObserver consumes, so no
// chunk is ever delivered down two paths (the duplication the old
// stderr_sink arrangement invited).
void Interpreter::emit_stdout(std::string_view text) {
  if (observers_) observers_->on_output(obs::StreamKind::kStdout, text);
  if (!options_.capture_stdout) return;
  output_ += text;
}

void Interpreter::emit_stderr(std::string_view text) {
  if (observers_) observers_->on_output(obs::StreamKind::kStderr, text);
  if (!options_.capture_stderr) return;
  diagnostics_ += text;
}

template <class Render>
void Interpreter::log(LogLevel level, const Render& render) {
  if (!observers_) return;
  obs::ObsLogLine line;
  line.level = static_cast<int>(level);
  line.time = executor_->now();
  line.component = "ftsh";
  line.renderer = [](const void* args, std::string* out) {
    (*static_cast<const Render*>(args))(out);
  };
  line.args = &render;
  observers_->on_log(line);
}

obs::SiteId Interpreter::try_site(int line) {
  const auto slot = static_cast<std::size_t>(line);  // lines start at 1
  if (slot >= try_sites_.size()) try_sites_.resize(slot + 1, obs::kSiteNone);
  obs::SiteId& site = try_sites_[slot];
  if (site == obs::kSiteNone) {
    char name[16] = "try:";
    char* end = std::to_chars(name + 4, name + sizeof(name), line).ptr;
    site = obs::intern_site(std::string_view(name, std::size_t(end - name)));
  }
  return site;
}

// ----------------------------------------------------------------- groups

Interpreter::EvalResult Interpreter::eval_group(const Group& group,
                                                EvalCtx& ctx) {
  for (const Statement* stmt : group.statements) {
    // Preemption point: lets a kill or a deadline reach command-free
    // stretches (arithmetic loops), and stops a terminated script.
    if (executor_->checkpoint()) {
      return EvalResult::from(Status::killed("ftsh terminated"));
    }
    EvalResult result = eval_statement(*stmt, ctx);
    if (result.flow == Flow::kReturn || result.status.failed()) {
      return result;  // fail-fast: the rest of the group does not run
    }
  }
  return EvalResult::ok();
}

Interpreter::EvalResult Interpreter::eval_statement(const Statement& stmt,
                                                    EvalCtx& ctx) {
  try {
    switch (stmt.kind) {
      case Statement::Kind::kCommand:
        return eval_command(stmt.as<CommandStmt>(), ctx);
      case Statement::Kind::kTry:
        return eval_try(stmt.as<TryStmt>(), ctx);
      case Statement::Kind::kFor:
        return eval_for(stmt.as<ForStmt>(), ctx);
      case Statement::Kind::kIf:
        return eval_if(stmt.as<IfStmt>(), ctx);
      case Statement::Kind::kWhile:
        return eval_while(stmt.as<WhileStmt>(), ctx);
      case Statement::Kind::kFunction: {
        // The table entry shares ownership of the defining script: the
        // function outlives this run and its ParseResult.
        const FunctionDef& def = stmt.as<FunctionDef>();
        ctx.env->define_function(std::shared_ptr<const FunctionDef>(
            def.script->shared_from_this(), &def));
        return EvalResult::ok();
      }
      case Statement::Kind::kAssignment:
        return eval_assignment(stmt.as<AssignmentStmt>(), ctx);
      case Statement::Kind::kFailure:
        return EvalResult::from(Status::failure(
            strprintf("failure at line %d", stmt.line)));
      case Statement::Kind::kReturn:
        return EvalResult{Status::success(), Flow::kReturn};
    }
    return EvalResult::from(Status::failure("unknown statement kind"));
  } catch (const EvalError& e) {
    log(LogLevel::kInfo, [&](std::string* out) {
      *out += strprintf("line %d: %s", stmt.line,
                        e.status.to_string().c_str());
    });
    return EvalResult::from(e.status);
  }
}

// --------------------------------------------------------------- commands

Interpreter::EvalResult Interpreter::eval_command(const CommandStmt& cmd,
                                                  EvalCtx& ctx) {
  CommandInvocation& invocation = ctx.scratch->inv;
  expand_words_into(cmd.argv, ctx, invocation.argv);
  if (invocation.argv.empty()) {
    return EvalResult::from(
        Status::invalid_argument("command expanded to nothing"));
  }

  // Function call?
  if (auto function = ctx.env->find_function(invocation.argv[0])) {
    if (cmd.redirects.stdin_file || cmd.redirects.stdout_file ||
        cmd.redirects.stdin_var || cmd.redirects.stdout_var) {
      return EvalResult::from(Status::invalid_argument(
          "redirections are not supported on function calls"));
    }
    return eval_function_call(cmd, *function, invocation.argv, ctx);
  }

  // Reset the reused invocation's non-argv state.
  invocation.stdin_data.reset();
  invocation.stdin_file.reset();
  invocation.stdout_file.reset();
  invocation.stdout_append = cmd.redirects.stdout_append;
  invocation.capture_stdout = false;
  invocation.merge_stderr = cmd.redirects.merge_stderr;
  invocation.deadline = ctx.deadline;
  invocation.parent_span = 0;
  if (cmd.redirects.stdin_file) {
    invocation.stdin_file = expand_word(*cmd.redirects.stdin_file, ctx);
  }
  if (cmd.redirects.stdout_file) {
    invocation.stdout_file = expand_word(*cmd.redirects.stdout_file, ctx);
  }
  std::string capture_var;
  if (cmd.redirects.stdout_var) {
    capture_var = expand_word(*cmd.redirects.stdout_var, ctx);
    invocation.capture_stdout = true;
  }
  if (cmd.redirects.stdin_var) {
    const std::string name = expand_word(*cmd.redirects.stdin_var, ctx);
    auto value = ctx.env->get(name);
    if (!value) {
      return EvalResult::from(
          Status::invalid_argument("undefined variable for -<: " + name));
    }
    invocation.stdin_data = std::move(*value);
  }

  obs::Span span;
  if (observers_) {
    std::string& detail = ctx.scratch->detail;
    detail.clear();
    for (std::size_t i = 0; i < invocation.argv.size(); ++i) {
      if (i != 0) detail += ' ';
      detail += invocation.argv[i];
    }
    span.kind = obs::SpanKind::kCommand;
    span.parent = ctx.span;
    span.name = invocation.argv[0];
    span.detail = detail;
    span.line = cmd.line;
    span.track = ctx.track;
    span.start = executor_->now();
    observers_->begin_span(span);
    invocation.parent_span = span.id;
  }
  CommandResult result = executor_->run(invocation);
  if (observers_) {
    span.end = executor_->now();
    span.status = result.status;
    observers_->end_span(span);
    if (result.status.failed()) {
      log(LogLevel::kInfo, [&](std::string* out) {
        *out += strprintf("command '%s' failed: %s",
                          invocation.argv[0].c_str(),
                          result.status.to_string().c_str());
      });
    }
  }
  if (invocation.capture_stdout) {
    if (result.status.ok()) {
      // Command-substitution convention: strip trailing newlines so that
      // `cut ... -> n` yields a clean value for ${n} comparisons.
      while (!result.out.empty() && result.out.back() == '\n') {
        result.out.pop_back();
      }
      ctx.env->assign(capture_var, std::move(result.out));
    }
  } else if (!result.out.empty()) {
    emit_stdout(result.out);
  }
  if (!result.err.empty()) emit_stderr(result.err);
  return EvalResult::from(std::move(result.status));
}

Interpreter::EvalResult Interpreter::eval_function_call(
    const CommandStmt& cmd, const FunctionDef& function,
    const std::vector<std::string>& argv, EvalCtx& ctx) {
  if (ctx.function_depth > 64) {
    return EvalResult::from(Status::failure(
        "function recursion too deep: " + std::string(function.name)));
  }
  if (argv.size() - 1 != function.parameters.size()) {
    return EvalResult::from(Status::invalid_argument(strprintf(
        "line %d: function %s expects %zu argument(s), got %zu", cmd.line,
        std::string(function.name).c_str(), function.parameters.size(),
        argv.size() - 1)));
  }
  Environment frame(ctx.env);
  // `argv` aliases the shared scratch; it must not be read past this
  // binding loop -- the body below reuses the same buffers.
  for (std::size_t i = 0; i < function.parameters.size(); ++i) {
    frame.define(function.parameters[i], argv[i + 1]);
  }
  EvalCtx call_ctx{&frame,       ctx.deadline,           ctx.rng.stream(function.name),
                   ctx.function_depth + 1, ctx.span, ctx.track,
                   ctx.scratch};
  obs::Span span;
  if (observers_) {
    span.kind = obs::SpanKind::kFunction;
    span.parent = ctx.span;
    span.name = function.name;
    span.line = cmd.line;
    span.track = ctx.track;
    span.start = executor_->now();
    observers_->begin_span(span);
    call_ctx.span = span.id;
  }
  EvalResult result = eval_group(function.body, call_ctx);
  if (observers_) {
    span.end = executor_->now();
    span.status = result.status;
    observers_->end_span(span);
  }
  if (result.flow == Flow::kReturn) {
    return EvalResult::ok();  // `return` stops at the function boundary
  }
  return result;
}

// -------------------------------------------------------------------- try

namespace {
std::string describe_try(const TryStmt& t) {
  std::string out = "try";
  if (!t.time_words.empty()) {
    out += " for";
    for (const Word& w : t.time_words) {
      out += ' ';
      out += w.describe();
    }
  }
  if (t.attempts_word) {
    out += (t.time_words.empty() ? " " : " or ") +
           t.attempts_word->describe() + " times";
  }
  return out;
}
}  // namespace

Interpreter::EvalResult Interpreter::eval_try(const TryStmt& t,
                                              EvalCtx& ctx) {
  core::TryOptions options;
  options.backoff = options_.backoff;
  if (!t.time_words.empty()) {
    const std::string text = join(expand_words(t.time_words, ctx), " ");
    Duration limit{};
    if (!parse_duration(text, &limit)) {
      return EvalResult::from(Status::invalid_argument(
          strprintf("line %d: bad try duration '%s'", t.line,
                    text.c_str())));
    }
    options.time_limit = limit;
  }
  if (t.attempts_word) {
    const std::string text = expand_word(*t.attempts_word, ctx);
    long long n = 0;
    if (!parse_int(text, &n) || n < 0) {
      return EvalResult::from(Status::invalid_argument(strprintf(
          "line %d: bad try attempt count '%s'", t.line, text.c_str())));
    }
    options.attempt_limit = int(n);
  }

  const TimePoint try_deadline =
      options.time_limit ? executor_->now() + *options.time_limit
                         : TimePoint::max();
  EvalCtx body_ctx{ctx.env,   std::min(ctx.deadline, try_deadline),
                   ctx.rng,   ctx.function_depth,
                   ctx.span,  ctx.track,
                   ctx.scratch};
  bool returned = false;

  // Backs the try span's name view from begin through end.
  std::string try_name;
  obs::Span try_span;
  if (observers_) {
    try_name = describe_try(t);
    try_span.kind = obs::SpanKind::kTry;
    try_span.parent = ctx.span;
    try_span.name = try_name;
    try_span.line = t.line;
    try_span.track = ctx.track;
    try_span.start = executor_->now();
    observers_->begin_span(try_span);
    // Two pointers: small enough for std::function to hold in place.
    options.on_backoff = [this, &try_span](Duration delay) {
      obs::ObsEvent event;
      event.kind = obs::ObsEvent::Kind::kBackoff;
      event.time = executor_->now();
      event.span = try_span.id;
      event.site = try_site(try_span.line);
      event.value = to_seconds(delay);
      observers_->on_event(event);
    };
  }

  core::TryMetrics metrics;
  options.metrics = &metrics;
  int attempt_index = 0;
  Status status =
      core::run_try(*executor_, body_ctx.rng, options, [&](TimePoint) {
        // The name buffer outlives the span's end_span below.
        static constexpr std::string_view kAttempt = "attempt ";
        char attempt_name[kAttempt.size() + 11];
        obs::Span attempt_span;
        if (observers_) {
          kAttempt.copy(attempt_name, kAttempt.size());
          char* const end =
              std::to_chars(attempt_name + kAttempt.size(),
                            attempt_name + sizeof(attempt_name),
                            ++attempt_index)
                  .ptr;
          attempt_span.kind = obs::SpanKind::kTryAttempt;
          attempt_span.parent = try_span.id;
          attempt_span.name =
              std::string_view(attempt_name, std::size_t(end - attempt_name));
          attempt_span.line = t.line;
          attempt_span.track = ctx.track;
          attempt_span.start = executor_->now();
          observers_->begin_span(attempt_span);
          body_ctx.span = attempt_span.id;
        }
        EvalResult r = eval_group(t.body, body_ctx);
        if (r.flow == Flow::kReturn) returned = true;
        if (observers_) {
          attempt_span.end = executor_->now();
          attempt_span.status = r.status;
          observers_->end_span(attempt_span);
        }
        return r.status;
      });
  ctx.rng = body_ctx.rng;  // keep the jitter stream advancing

  if (observers_) {
    try_span.end = executor_->now();
    try_span.status = status;
    try_span.attempts = metrics.attempts;
    try_span.backoff = metrics.backoff_total;
    observers_->end_span(try_span);
    log(LogLevel::kDebug, [&](std::string* out) {
      *out += strprintf(
          "try at line %d: %s after %d attempt(s), %s backing off", t.line,
          status.ok() ? "success" : "failure", metrics.attempts,
          format_duration(metrics.backoff_total).c_str());
    });
  }

  if (returned && status.ok()) {
    return EvalResult{Status::success(), Flow::kReturn};
  }
  if (status.failed() && t.catch_body) {
    log(LogLevel::kDebug, [&](std::string* out) {
      *out += strprintf("try at line %d: entering catch block", t.line);
    });
    return eval_group(*t.catch_body, ctx);
  }
  return EvalResult::from(std::move(status));
}

// ---------------------------------------------------------- forany/forall

Interpreter::EvalResult Interpreter::eval_for(const ForStmt& f,
                                              EvalCtx& ctx) {
  const std::vector<std::string> items = expand_words(f.list, ctx);
  if (items.empty()) {
    return EvalResult::from(Status::invalid_argument(
        strprintf("line %d: %s list expanded to nothing", f.line,
                  f.mode == ForStmt::Mode::kAny ? "forany" : "forall")));
  }

  if (f.mode == ForStmt::Mode::kAny) {
    obs::Span span;
    std::string forany_name;  // backs the span's name view begin -> end
    const std::uint64_t saved_span = ctx.span;
    if (observers_) {
      forany_name = "forany ";
      forany_name += f.variable;
      span.kind = obs::SpanKind::kForany;
      span.parent = ctx.span;
      span.name = forany_name;
      span.line = f.line;
      span.track = ctx.track;
      span.start = executor_->now();
      observers_->begin_span(span);
      ctx.span = span.id;
    }
    auto finish = [&](const Status& s, int attempts) {
      if (!observers_) return;
      span.end = executor_->now();
      span.status = s;
      span.attempts = attempts;
      observers_->end_span(span);
      ctx.span = saved_span;
    };
    Status last = Status::failure("forany: no alternatives");
    int tried = 0;
    for (const std::string& item : items) {
      ctx.env->assign(f.variable, item);
      ++tried;
      EvalResult result = eval_group(f.body, ctx);
      if (result.flow == Flow::kReturn || result.status.ok()) {
        finish(result.status, tried);
        return result;  // winning value stays in the variable
      }
      last = std::move(result.status);
      log(LogLevel::kDebug, [&](std::string* out) {
        *out += strprintf("forany at line %d: alternative '%s' failed",
                          f.line, item.c_str());
      });
    }
    finish(last, tried);
    return EvalResult::from(std::move(last));
  }

  // forall: all alternatives in parallel; abort the rest on first failure
  // (the executor implements the abort).
  obs::Span span;
  std::string forall_name;   // back the span's views begin -> end
  char forall_detail[32];
  if (observers_) {
    forall_name = "forall ";
    forall_name += f.variable;
    std::snprintf(forall_detail, sizeof(forall_detail), "%d branches",
                  int(items.size()));
    span.kind = obs::SpanKind::kForall;
    span.parent = ctx.span;
    span.name = forall_name;
    span.detail = forall_detail;
    span.line = f.line;
    span.track = ctx.track;
    span.start = executor_->now();
    observers_->begin_span(span);
  }
  std::vector<std::unique_ptr<Environment>> branch_envs;
  std::vector<std::function<Status()>> branches;
  branch_envs.reserve(items.size());
  branches.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto env = std::make_unique<Environment>(ctx.env);
    env->define(f.variable, items[i]);
    Environment* env_ptr = env.get();
    branch_envs.push_back(std::move(env));
    Rng branch_rng = ctx.rng.stream(i);
    // Each branch renders on its own lane; allocation follows branch
    // creation order, which the sim kernel makes deterministic.
    const std::uint64_t branch_track =
        observers_ ? ++next_track_ : ctx.track;
    branches.push_back([this, &f, env_ptr, branch_rng, &ctx, &span,
                        branch_track]() -> Status {
      Scratch branch_scratch;  // branches run concurrently: own buffers
      EvalCtx branch_ctx{env_ptr, ctx.deadline, branch_rng,
                         ctx.function_depth,
                         observers_ ? span.id : ctx.span, branch_track,
                         &branch_scratch};
      return eval_group(f.body, branch_ctx).status;
    });
  }
  std::vector<Status> statuses = executor_->run_parallel(std::move(branches));
  Status overall = Status::success();
  for (const Status& s : statuses) {
    if (s.failed()) {
      overall = Status(s.code(),
                       strprintf("forall at line %d failed: %.*s", f.line,
                                 int(s.message().size()),
                                 s.message().data()));
      break;
    }
  }
  if (observers_) {
    span.end = executor_->now();
    span.status = overall;
    span.attempts = int(statuses.size());
    observers_->end_span(span);
  }
  return EvalResult::from(std::move(overall));
}

// ------------------------------------------------------------ if / while

Interpreter::EvalResult Interpreter::eval_if(const IfStmt& stmt,
                                             EvalCtx& ctx) {
  if (eval_condition(*stmt.condition, ctx)) {
    return eval_group(stmt.then_body, ctx);
  }
  if (stmt.else_body) {
    return eval_group(*stmt.else_body, ctx);
  }
  return EvalResult::ok();
}

Interpreter::EvalResult Interpreter::eval_while(const WhileStmt& stmt,
                                                EvalCtx& ctx) {
  while (eval_condition(*stmt.condition, ctx)) {
    EvalResult result = eval_group(stmt.body, ctx);
    if (result.flow == Flow::kReturn || result.status.failed()) {
      return result;
    }
  }
  return EvalResult::ok();
}

Interpreter::EvalResult Interpreter::eval_assignment(
    const AssignmentStmt& stmt, EvalCtx& ctx) {
  std::string value = eval_expr(*stmt.value, ctx);
  ctx.env->assign(stmt.name, std::move(value));
  return EvalResult::ok();
}

// -------------------------------------------------------------- expansion

namespace {

// Resolves one variable segment, honoring ${name:-default} / ${name:=d}.
// Throws EvalError for a plain unset ${name}.
std::string resolve_variable(const WordSegment& seg, Environment& env,
                             int line) {
  auto value = env.get(seg.text);
  if (value) return *value;
  switch (seg.if_unset) {
    case WordSegment::IfUnset::kUseDefault:
      return std::string(seg.default_value);
    case WordSegment::IfUnset::kAssignDefault:
      env.assign(seg.text, std::string(seg.default_value));
      return std::string(seg.default_value);
    case WordSegment::IfUnset::kError:
      break;
  }
  eval_fail(Status::invalid_argument(
      strprintf("line %d: undefined variable '%s'", line,
                std::string(seg.text).c_str())));
}

}  // namespace

void Interpreter::expand_word_into(const Word& word, EvalCtx& ctx,
                                   std::string& out) {
  for (const WordSegment& seg : word.segments) {
    if (seg.kind == WordSegment::Kind::kLiteral) {
      out += seg.text;
      continue;
    }
    out += resolve_variable(seg, *ctx.env, word.line);
  }
}

std::string Interpreter::expand_word(const Word& word, EvalCtx& ctx) {
  std::string out;
  expand_word_into(word, ctx, out);
  return out;
}

std::vector<std::string> Interpreter::expand_words(
    std::span<const Word> words, EvalCtx& ctx) {
  std::vector<std::string> out;
  expand_words_into(words, ctx, out);
  return out;
}

void Interpreter::expand_words_into(std::span<const Word> words,
                                    EvalCtx& ctx,
                                    std::vector<std::string>& out) {
  out.clear();  // keeps the vector's capacity: the hot path re-expands free
  for (const Word& word : words) {
    // Fast path: no splittable variable segments -> single argument.
    bool any_split = false;
    for (const WordSegment& seg : word.segments) {
      if (seg.kind == WordSegment::Kind::kVariable && seg.splittable) {
        any_split = true;
        break;
      }
    }
    if (!any_split) {
      out.emplace_back();
      expand_word_into(word, ctx, out.back());
      continue;
    }
    // Expand then field-split the splittable variable values.  We expand
    // segment-wise so literal text adjacent to a split variable joins the
    // neighbouring fields (Bourne semantics).
    std::vector<std::string> fields{""};
    bool field_open = false;  // false: current field may still be dropped
    for (const WordSegment& seg : word.segments) {
      std::string value;
      if (seg.kind == WordSegment::Kind::kLiteral) {
        value = seg.text;
      } else {
        value = resolve_variable(seg, *ctx.env, word.line);
      }
      if (seg.kind == WordSegment::Kind::kVariable && seg.splittable) {
        std::vector<std::string> parts = split(value);
        const bool leading_space =
            !value.empty() &&
            std::isspace(static_cast<unsigned char>(value.front()));
        const bool trailing_space =
            !value.empty() &&
            std::isspace(static_cast<unsigned char>(value.back()));
        for (std::size_t i = 0; i < parts.size(); ++i) {
          if (i == 0 && !leading_space) {
            fields.back() += parts[i];
          } else {
            fields.push_back(parts[i]);
          }
          field_open = true;
        }
        if (trailing_space && !parts.empty()) {
          fields.push_back("");
          field_open = false;
        }
      } else {
        fields.back() += value;
        if (!value.empty()) field_open = true;
      }
    }
    if (!field_open && fields.size() > 1 && fields.back().empty()) {
      fields.pop_back();  // trailing split residue
    }
    for (std::string& field : fields) {
      if (!field.empty() || word.segments.empty()) {
        out.push_back(std::move(field));
      }
    }
  }
}

// ------------------------------------------------------------ expressions

namespace {

bool is_boolean(const std::string& s) { return s == "true" || s == "false"; }

}  // namespace

std::string Interpreter::eval_expr(const Expr& expr, EvalCtx& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kValue:
      return expand_word(expr.value, ctx);
    case Expr::Kind::kNot: {
      std::string v = eval_expr(*expr.child, ctx);
      if (!is_boolean(v)) {
        eval_fail(Status::invalid_argument(strprintf(
            "line %d: .not. needs a boolean, got '%s'", expr.line,
            v.c_str())));
      }
      return v == "true" ? "false" : "true";
    }
    case Expr::Kind::kExists: {
      std::string path = eval_expr(*expr.child, ctx);
      return executor_->file_exists(path) ? "true" : "false";
    }
    case Expr::Kind::kBinary:
      break;
  }

  const std::string lhs = eval_expr(*expr.lhs, ctx);
  const std::string rhs = eval_expr(*expr.rhs, ctx);

  auto need_ints = [&](long long* a, long long* b) {
    if (!parse_int(lhs, a) || !parse_int(rhs, b)) {
      eval_fail(Status::invalid_argument(strprintf(
          "line %d: numeric operator needs integers, got '%s' and '%s'",
          expr.line, lhs.c_str(), rhs.c_str())));
    }
  };
  auto boolean = [](bool b) { return std::string(b ? "true" : "false"); };

  switch (expr.op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      long long a, b;
      bool equal;
      if (parse_int(lhs, &a) && parse_int(rhs, &b)) {
        equal = a == b;  // 07 .eq. 7
      } else {
        equal = lhs == rhs;
      }
      return boolean(expr.op == BinaryOp::kEq ? equal : !equal);
    }
    case BinaryOp::kLt:
    case BinaryOp::kGt:
    case BinaryOp::kLe:
    case BinaryOp::kGe: {
      long long a, b;
      need_ints(&a, &b);
      switch (expr.op) {
        case BinaryOp::kLt:
          return boolean(a < b);
        case BinaryOp::kGt:
          return boolean(a > b);
        case BinaryOp::kLe:
          return boolean(a <= b);
        default:
          return boolean(a >= b);
      }
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if (!is_boolean(lhs) || !is_boolean(rhs)) {
        eval_fail(Status::invalid_argument(strprintf(
            "line %d: boolean operator needs booleans, got '%s' and '%s'",
            expr.line, lhs.c_str(), rhs.c_str())));
      }
      const bool a = lhs == "true";
      const bool b = rhs == "true";
      return boolean(expr.op == BinaryOp::kAnd ? (a && b) : (a || b));
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      long long a, b;
      need_ints(&a, &b);
      if ((expr.op == BinaryOp::kDiv || expr.op == BinaryOp::kMod) && b == 0) {
        eval_fail(Status::invalid_argument(
            strprintf("line %d: division by zero", expr.line)));
      }
      switch (expr.op) {
        case BinaryOp::kAdd:
          return std::to_string(a + b);
        case BinaryOp::kSub:
          return std::to_string(a - b);
        case BinaryOp::kMul:
          return std::to_string(a * b);
        case BinaryOp::kDiv:
          return std::to_string(a / b);
        default:
          return std::to_string(a % b);
      }
    }
  }
  eval_fail(Status::failure("unhandled operator"));
}

bool Interpreter::eval_condition(const Expr& expr, EvalCtx& ctx) {
  const std::string v = eval_expr(expr, ctx);
  if (v == "true") return true;
  if (v == "false") return false;
  long long n;
  if (parse_int(v, &n)) return n != 0;  // numeric truthiness
  eval_fail(Status::invalid_argument(strprintf(
      "line %d: condition is neither boolean nor numeric: '%s'", expr.line,
      v.c_str())));
}

}  // namespace ethergrid::shell
