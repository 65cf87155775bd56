#include "shell/parser.hpp"

#include <algorithm>
#include <cctype>
#include <new>

#include "shell/lexer.hpp"
#include "util/strings.hpp"

namespace ethergrid::shell {

namespace {

// Tokens and the parser's stacks live in a buffer of this size on the
// caller's stack; only a larger script spills them to the heap.
constexpr std::size_t kScratchBytes = 4096;

bool is_identifier(std::string_view text) {
  if (text.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(text[0])) && text[0] != '_') {
    return false;
  }
  for (char c : text) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

bool is_wordish(const Token& t) {
  return t.kind == TokenKind::kWord || t.kind == TokenKind::kString;
}

std::string str(std::string_view text) { return std::string(text); }

WordSegment literal_segment(std::string_view text) {
  WordSegment segment;
  segment.text = text;
  return segment;
}

// Most segments a token can split into: each '$' may close a literal run
// and open a variable, and a literal run may follow the last one.
std::size_t segment_bound(const Token& token) {
  if (token.kind == TokenKind::kString && token.literal) return 1;
  return 1 + 2 * std::size_t(std::count(token.text.begin(), token.text.end(),
                                        '$'));
}

// Splits a token's text into literal/variable segments (${name}, $name) at
// out[n...]; returns the new count.  Segments view the text.
std::size_t append_segments(const Token& token, WordSegment* out,
                            std::size_t n) {
  const std::string_view text = token.text;
  if (token.kind == TokenKind::kString && token.literal) {
    out[n++] = literal_segment(text);
    return n;
  }
  const bool splittable = token.kind == TokenKind::kWord;
  std::size_t literal = 0;  // start of the pending literal run
  auto flush = [&](std::size_t end) {
    if (end > literal) {
      out[n++] = literal_segment(text.substr(literal, end - literal));
    }
  };
  for (std::size_t i = text.find('$'); i != std::string_view::npos;
       i = text.find('$', i)) {
    WordSegment segment;
    segment.kind = WordSegment::Kind::kVariable;
    segment.splittable = splittable;
    // '$' -- try ${name} (with optional :- / := default) then $name.
    const std::size_t close =
        i + 1 < text.size() && text[i + 1] == '{' ? text.find('}', i + 2)
                                                  : std::string_view::npos;
    std::size_t next = i + 1;
    if (close != std::string_view::npos) {
      const std::string_view content = text.substr(i + 2, close - i - 2);
      std::size_t marker = content.find(":-");
      if (marker == std::string_view::npos) {
        marker = content.find(":=");
        if (marker != std::string_view::npos) {
          segment.if_unset = WordSegment::IfUnset::kAssignDefault;
        }
      } else {
        segment.if_unset = WordSegment::IfUnset::kUseDefault;
      }
      segment.text = content.substr(0, marker);
      if (marker != std::string_view::npos) {
        segment.default_value = content.substr(marker + 2);
      }
      next = close + 1;
    } else {
      while (next < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[next])) ||
              text[next] == '_')) {
        ++next;
      }
      if (next == i + 1) {  // lone dollar: stays in the literal run
        ++i;
        continue;
      }
      segment.text = text.substr(i + 1, next - i - 1);
    }
    flush(i);
    out[n++] = segment;
    i = literal = next;
  }
  flush(text.size());
  return n;
}

struct ParseError {
  Status status;
};

// Parses the token stream into nodes allocated from the script's arena.
// Blocks are parsed on an explicit stack of open frames, and expressions by
// operator precedence over a stack as well, so nothing recurses: the
// parser's stack use is the same at any nesting depth.
class Parser {
 public:
  Parser(std::span<const Token> tokens, Script& script,
         std::pmr::memory_resource* scratch)
      : tokens_(tokens),
        script_(script),
        stmts_(scratch),
        frames_(scratch),
        scratch_(scratch) {}

  Group run() {
    while (true) {
      skip_newlines();
      if (at_eof()) {
        if (!frames_.empty()) {
          fail_here("unexpected end of script (missing 'end')");
        }
        return close_group(0);
      }
      if (!frames_.empty() && at_terminator()) {
        close_part();
      } else {
        statement();
      }
    }
  }

 private:
  // A block whose body is being parsed.
  struct Frame {
    Statement* node;
    Group* group;      // the node's group being parsed
    std::size_t base;  // where that group's statements start on stmts_
    std::string_view also_ends;  // "catch" / "else": ends it besides 'end'
    bool chained;  // `else if`: its 'end' also closes the enclosing if
  };

  [[noreturn]] void fail(const std::string& message, int line) {
    throw ParseError{Status::invalid_argument(
        strprintf("line %d: %s", line, message.c_str()))};
  }
  [[noreturn]] void fail_here(const std::string& message) {
    fail(message, peek().line);
  }

  const Token& token(std::size_t i) const {
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& peek() const { return token(pos_); }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  bool at_eof() const { return peek().kind == TokenKind::kEof; }
  bool at_keyword(std::string_view w) const { return peek().is_word(w); }

  void skip_newlines() {
    while (peek().kind == TokenKind::kNewline) advance();
  }

  void expect_newline(const char* after) {
    if (peek().kind == TokenKind::kNewline || at_eof()) {
      if (!at_eof()) advance();
      return;
    }
    fail_here(strprintf("expected end of line after %s, got '%s'", after,
                        str(peek().text).c_str()));
  }

  // ---- arena ------------------------------------------------------------

  // Storage for n objects, each of which the caller assigns whole.
  template <class T>
  T* make_array(std::size_t n) {
    return static_cast<T*>(script_.arena.allocate(n * sizeof(T), alignof(T)));
  }

  template <class T>
  T* make_node(Statement::Kind kind, int line) {
    T* node = new (make_array<T>(1)) T();
    node->kind = kind;
    node->line = line;
    return node;
  }

  // Moves the statements above `base` into the arena as one group.
  Group close_group(std::size_t base) {
    const std::size_t n = stmts_.size() - base;
    if (n == 0) return Group{};
    const Statement** items = make_array<const Statement*>(n);
    std::copy(stmts_.begin() + std::ptrdiff_t(base), stmts_.end(), items);
    stmts_.resize(base);
    return Group{{items, n}};
  }

  // ---- blocks -------------------------------------------------------------

  void open(Statement* node, Group* group, std::string_view also_ends = {},
            bool chained = false) {
    if (frames_.size() >= kMaxNestingDepth) {
      fail("nesting too deep", node->line);
    }
    frames_.push_back(Frame{node, group, stmts_.size(), also_ends, chained});
  }

  // True when the current statement-start token ends the innermost open
  // group (not consumed).
  bool at_terminator() const {
    const Frame& f = frames_.back();
    return at_keyword("end") ||
           (!f.also_ends.empty() && at_keyword(f.also_ends));
  }

  void close_part() {
    Frame& f = frames_.back();
    *f.group = close_group(f.base);
    f.also_ends = {};
    if (at_keyword("catch")) {
      f.group = &static_cast<TryStmt*>(f.node)->catch_body.emplace();
      advance();
      expect_newline("'catch'");
      return;
    }
    if (at_keyword("else")) {
      f.group = &static_cast<IfStmt*>(f.node)->else_body.emplace();
      advance();
      if (at_keyword("if")) {
        // else-if chain: the else body is exactly one nested if.
        if_statement(/*chained=*/true);
      } else {
        expect_newline("'else'");
      }
      return;
    }
    advance();  // 'end'
    expect_newline("'end'");
    Frame done = f;
    frames_.pop_back();
    stmts_.push_back(done.node);
    while (done.chained) {  // the nested if's 'end' closes its parent too
      done = frames_.back();
      frames_.pop_back();
      *done.group = close_group(done.base);
      stmts_.push_back(done.node);
    }
  }

  // ---- statements -------------------------------------------------------

  void statement() {
    const Token& first = peek();
    if (first.kind == TokenKind::kWord) {
      const std::string_view w = first.text;
      if (w == "try") return try_statement();
      if (w == "forany" || w == "forall") return for_statement();
      if (w == "if") return if_statement(/*chained=*/false);
      if (w == "while") return while_statement();
      if (w == "function") return function_statement();
      if (w == "failure" || w == "return") {
        const bool failure = w == "failure";
        stmts_.push_back(make_node<Statement>(
            failure ? Statement::Kind::kFailure : Statement::Kind::kReturn,
            first.line));
        advance();
        expect_newline(failure ? "'failure'" : "'return'");
        return;
      }
      if (w == "catch" || w == "end" || w == "else") {
        fail_here(strprintf("'%s' without a matching construct",
                            str(w).c_str()));
      }
    }
    stmts_.push_back(command());
  }

  // Index just past the word that starts at token i: i and the tokens glued
  // to it.
  std::size_t word_end(std::size_t i) const {
    for (++i; is_wordish(token(i)) && token(i).glued; ++i) {
    }
    return i;
  }

  // One word: the current token and the tokens glued to it.
  Word word() {
    const std::size_t end = word_end(pos_);
    std::size_t bound = 0;
    for (std::size_t i = pos_; i < end; ++i) bound += segment_bound(token(i));
    WordSegment* segments = make_array<WordSegment>(bound);
    const int line = peek().line;
    std::size_t n = 0;
    while (pos_ < end) n = append_segments(advance(), segments, n);
    return Word{{segments, n}, line};
  }

  // The words of the current line, up to (not consuming) a newline, eof or
  // redirection operator.
  std::span<const Word> words() {
    std::size_t n = 0;
    for (std::size_t i = pos_; is_wordish(token(i)); i = word_end(i)) ++n;
    Word* items = make_array<Word>(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = word();
    return {items, n};
  }

  const Statement* command() {
    auto* cmd = make_node<CommandStmt>(Statement::Kind::kCommand, peek().line);
    // Count argv first (a redirection and its target are not argv) so the
    // words land in one array.
    std::size_t argc = 0;
    for (std::size_t i = pos_; token(i).kind != TokenKind::kNewline &&
                               token(i).kind != TokenKind::kEof;) {
      if (is_wordish(token(i))) {
        ++argc;
        i = word_end(i);
      } else if (is_wordish(token(++i))) {
        i = word_end(i);
      }
    }
    Word* argv = make_array<Word>(argc);
    std::size_t n = 0;
    Redirections& r = cmd->redirects;
    while (true) {
      const Token& t = peek();
      if (t.kind == TokenKind::kNewline || t.kind == TokenKind::kEof) break;
      if (is_wordish(t)) {
        argv[n++] = word();
        continue;
      }
      // A redirection operator (its text, as in the message) and its target.
      advance();
      const TokenKind k = t.kind;
      if (!is_wordish(peek())) {
        fail_here(strprintf("expected '%s' target", str(t.text).c_str()));
      }
      const bool to_var = k == TokenKind::kVarOut || k == TokenKind::kVarBoth;
      std::optional<Word>& target = k == TokenKind::kRedirectIn ? r.stdin_file
                                    : k == TokenKind::kVarIn    ? r.stdin_var
                                    : to_var ? r.stdout_var
                                             : r.stdout_file;
      target = word();
      r.stdout_append |= k == TokenKind::kRedirectApp;
      r.merge_stderr |=
          k == TokenKind::kRedirectBoth || k == TokenKind::kVarBoth;
    }
    if (!at_eof()) advance();  // consume newline
    if (n == 0) fail("redirection without a command", cmd->line);
    cmd->argv = {argv, n};
    return finish_command(cmd, argv);
  }

  // Distinguishes `name=value` / `name = expr` assignments from commands.
  // `argv` is the command's own (mutable) argv array.
  const Statement* finish_command(CommandStmt* cmd, Word* argv) {
    const Redirections& r = cmd->redirects;
    if (r.stdin_file || r.stdout_file || r.stdin_var || r.stdout_var) {
      return cmd;
    }
    const std::size_t argc = cmd->argv.size();
    const std::span<const WordSegment> head = argv[0].segments;
    if (head.empty() || head[0].kind != WordSegment::Kind::kLiteral) {
      return cmd;
    }
    // Case `name = expr`.
    if (argc >= 3 && head.size() == 1 && is_identifier(head[0].text) &&
        argv[1].is_literal("=")) {
      return assignment(head[0].text, cmd->argv.subspan(2), cmd->line);
    }
    // Case `name=value...` (single token, '=' embedded in the first literal
    // segment).
    const std::string_view text = head[0].text;
    const std::size_t eq = text.find('=');
    if (eq == std::string_view::npos || eq == 0 ||
        !is_identifier(text.substr(0, eq))) {
      return cmd;
    }
    // The value word: the remainder of the first word after '='.
    WordSegment* segments = make_array<WordSegment>(head.size());
    std::size_t n = 0;
    if (eq + 1 < text.size()) {
      segments[n++] = literal_segment(text.substr(eq + 1));
    }
    for (std::size_t i = 1; i < head.size(); ++i) segments[n++] = head[i];
    argv[0].segments = {segments, n};
    return assignment(text.substr(0, eq), cmd->argv, cmd->line);
  }

  const Statement* assignment(std::string_view name,
                              std::span<const Word> value, int line) {
    auto* a = make_node<AssignmentStmt>(Statement::Kind::kAssignment, line);
    a->name = name;
    std::size_t pos = 0;
    a->value = expression(value, &pos, line);
    if (pos != value.size()) {
      fail("trailing words after assignment value", line);
    }
    return a;
  }

  void try_statement() {
    auto* t = make_node<TryStmt>(Statement::Kind::kTry, peek().line);
    advance();  // 'try'
    std::span<const Word> header = words();
    expect_newline("try header");

    // Strip a trailing "<word> times".
    if (header.size() >= 2 && header.back().is_literal("times")) {
      t->attempts_word = header[header.size() - 2];
      header = header.first(header.size() - 2);
      if (!header.empty() && header.back().is_literal("or")) {
        header = header.first(header.size() - 1);
      }
    }
    if (!header.empty()) {
      if (!header.front().is_literal("for")) {
        fail("bad try header: expected 'for <duration>' and/or '<n> times'",
             t->line);
      }
      if (header.size() == 1) fail("try: 'for' needs a duration", t->line);
      t->time_words = header.subspan(1);
    }
    if (t->time_words.empty() && !t->attempts_word) {
      fail("try needs a time limit and/or an attempt count", t->line);
    }
    open(t, &t->body, "catch");
  }

  void for_statement() {
    auto* f = make_node<ForStmt>(Statement::Kind::kFor, peek().line);
    const std::string_view which = peek().text;
    f->mode = which == "forany" ? ForStmt::Mode::kAny : ForStmt::Mode::kAll;
    advance();

    if (peek().kind != TokenKind::kWord || !is_identifier(peek().text)) {
      fail_here(str(which) + ": expected a variable name");
    }
    f->variable = advance().text;
    if (!peek().is_word("in")) fail_here(str(which) + ": expected 'in'");
    advance();
    f->list = words();
    if (f->list.empty()) fail_here(str(which) + ": empty alternative list");
    expect_newline("alternative list");
    open(f, &f->body);
  }

  void if_statement(bool chained) {
    auto* i = make_node<IfStmt>(Statement::Kind::kIf, peek().line);
    advance();  // 'if'
    i->condition = condition("if");
    open(i, &i->then_body, "else", chained);
  }

  void while_statement() {
    auto* w = make_node<WhileStmt>(Statement::Kind::kWhile, peek().line);
    advance();  // 'while'
    w->condition = condition("while");
    open(w, &w->body);
  }

  void function_statement() {
    auto* f = make_node<FunctionDef>(Statement::Kind::kFunction, peek().line);
    f->script = &script_;
    advance();  // 'function'
    if (peek().kind != TokenKind::kWord || !is_identifier(peek().text)) {
      fail_here("function: expected a name");
    }
    f->name = advance().text;
    std::size_t n = 0;
    while (token(pos_ + n).kind == TokenKind::kWord) ++n;
    std::string_view* parameters = make_array<std::string_view>(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_identifier(peek().text)) {
        fail_here("function: bad parameter name");
      }
      parameters[i] = advance().text;
    }
    f->parameters = {parameters, n};
    expect_newline("function header");
    open(f, &f->body);
  }

  const Expr* condition(const char* who) {
    const int line = peek().line;
    const std::span<const Word> ws = words();
    if (ws.empty()) fail(strprintf("%s: missing condition", who), line);
    expect_newline("condition");
    std::size_t pos = 0;
    const Expr* e = expression(ws, &pos, line);
    if (pos != ws.size()) {
      fail(strprintf("%s: trailing words after condition", who), line);
    }
    return e;
  }

  // ---- expressions over a word list (operator precedence) ---------------

  struct BinaryOperator {
    std::string_view text;
    BinaryOp op;
    int precedence;
  };

  static const BinaryOperator* binary_op(const Word& w) {
    static constexpr BinaryOperator kOps[] = {
        {".lt.", BinaryOp::kLt, 3},   {".gt.", BinaryOp::kGt, 3},
        {".le.", BinaryOp::kLe, 3},   {".ge.", BinaryOp::kGe, 3},
        {".eq.", BinaryOp::kEq, 3},   {".ne.", BinaryOp::kNe, 3},
        {".and.", BinaryOp::kAnd, 2}, {".or.", BinaryOp::kOr, 1},
        {".add.", BinaryOp::kAdd, 4}, {".sub.", BinaryOp::kSub, 4},
        {".mul.", BinaryOp::kMul, 5}, {".div.", BinaryOp::kDiv, 5},
        {".mod.", BinaryOp::kMod, 5},
    };
    for (const BinaryOperator& e : kOps) {
      if (w.is_literal(e.text)) return &e;
    }
    return nullptr;
  }

  // Binary operators are left-associative.  A prefix operator waits on the
  // operator stack until an operator binding looser than its operand
  // arrives: Fortran-style, `.not.` binds looser than comparisons (so
  // `.not. a .lt. b` negates the comparison) and yields only below
  // precedence 3; `.exists.` takes one operand and yields to everything.
  const Expr* expression(std::span<const Word> words, std::size_t* pos,
                         int line) {
    struct Op {
      Expr::Kind kind;
      BinaryOp op;
      int precedence;
      int line;
    };
    std::pmr::vector<Op> ops(scratch_);
    std::pmr::vector<const Expr*> operands(scratch_);
    ops.reserve(words.size());
    operands.reserve(words.size());
    auto reduce = [&] {
      const Op o = ops.back();
      ops.pop_back();
      Expr* e = new (make_array<Expr>(1)) Expr();
      e->kind = o.kind;
      e->op = o.op;
      e->line = o.line;
      if (o.kind == Expr::Kind::kBinary) {
        e->rhs = operands.back();
        operands.pop_back();
        e->lhs = operands.back();
      } else {
        e->child = operands.back();
      }
      operands.back() = e;
    };
    while (true) {
      if (*pos >= words.size()) fail("expression: missing operand", line);
      const Word& w = words[*pos];
      const bool is_not = w.is_literal(".not.");
      if (is_not || w.is_literal(".exists.")) {
        if (ops.size() >= kMaxNestingDepth) fail("nesting too deep", w.line);
        ops.push_back({is_not ? Expr::Kind::kNot : Expr::Kind::kExists, {},
                       is_not ? 3 : 6, w.line});
        ++*pos;
        continue;
      }
      if (binary_op(w)) {
        fail(strprintf("expression: operator '%s' needs a left operand",
                       w.describe().c_str()),
             w.line);
      }
      Expr* value = new (make_array<Expr>(1)) Expr();
      value->line = w.line;
      value->value = w;
      operands.push_back(value);
      ++*pos;

      const BinaryOperator* op =
          *pos < words.size() ? binary_op(words[*pos]) : nullptr;
      const int p = op ? op->precedence : 0;
      while (!ops.empty() && (ops.back().kind == Expr::Kind::kBinary
                                  ? ops.back().precedence >= p
                                  : ops.back().precedence > p)) {
        reduce();
      }
      if (!op) return operands.back();
      ops.push_back({Expr::Kind::kBinary, op->op, p, words[*pos].line});
      ++*pos;
    }
  }

  std::span<const Token> tokens_;
  std::size_t pos_ = 0;
  Script& script_;
  // Statements of every open group, innermost last, and the open blocks.
  std::pmr::vector<const Statement*> stmts_;
  std::pmr::vector<Frame> frames_;
  std::pmr::memory_resource* scratch_;
};

}  // namespace

std::string Word::describe() const {
  std::string out;
  for (const WordSegment& seg : segments) {
    if (seg.kind == WordSegment::Kind::kVariable) {
      out += "${";
      out += seg.text;
      out += '}';
    } else {
      out += seg.text;
    }
  }
  return out;
}

ParseResult parse_script(std::string_view source) {
  auto script = std::make_shared<Script>();
  char* text = static_cast<char*>(script->arena.allocate(source.size(), 1));
  source.copy(text, source.size());

  alignas(std::max_align_t) std::byte buffer[kScratchBytes];
  std::pmr::monotonic_buffer_resource scratch(buffer, sizeof buffer);
  std::pmr::vector<Token> tokens(&scratch);
  tokens.reserve(source.size() / 4 + 8);
  Status lexed = lex_in_place(text, source.size(), &tokens);
  if (lexed.failed()) return ParseResult{std::move(lexed), nullptr};
  try {
    script->top = Parser(tokens, *script, &scratch).run();
  } catch (const ParseError& e) {
    return ParseResult{e.status, nullptr};
  }
  return ParseResult{Status::success(), std::move(script)};
}

}  // namespace ethergrid::shell
