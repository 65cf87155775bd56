// Test-only canonical printer for the ftsh AST: one s-expression per
// statement, nested groups indented two spaces, every line number and
// word segment spelled out.  Two parses print the same text exactly when
// they built the same tree, so a golden file of this output pins the front
// end across rewrites of the parser and of the node types.
#pragma once

#include <string>
#include <string_view>

#include "shell/parser.hpp"

namespace ethergrid::shell::testing {

class AstPrinter {
 public:
  static std::string print(const ParseResult& r) {
    if (r.status.failed()) {
      return "(error " + quote(r.status.to_string()) + ")\n";
    }
    AstPrinter p;
    p.out_ = "(script\n";
    p.group(r.script->top, 1);
    p.out_ += ")\n";
    return p.out_;
  }

 private:
  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          out += c;
      }
    }
    return out + "\"";
  }

  static std::string word(const Word& w) {
    std::string out = "(w " + std::to_string(w.line);
    for (const WordSegment& seg : w.segments) {
      out += ' ';
      if (seg.kind == WordSegment::Kind::kLiteral) {
        out += quote(seg.text);
        continue;
      }
      out += "(var " + std::string(seg.text);
      if (seg.splittable) out += " split";
      switch (seg.if_unset) {
        case WordSegment::IfUnset::kError:
          break;
        case WordSegment::IfUnset::kUseDefault:
          out += " :- " + quote(seg.default_value);
          break;
        case WordSegment::IfUnset::kAssignDefault:
          out += " := " + quote(seg.default_value);
          break;
      }
      out += ')';
    }
    return out + ')';
  }

  template <class Words>
  static std::string words(const char* tag, const Words& ws) {
    std::string out = std::string("(") + tag;
    for (const Word& w : ws) out += ' ' + word(w);
    return out + ')';
  }

  static const char* op_name(BinaryOp op) {
    switch (op) {
      case BinaryOp::kLt:
        return "lt";
      case BinaryOp::kGt:
        return "gt";
      case BinaryOp::kLe:
        return "le";
      case BinaryOp::kGe:
        return "ge";
      case BinaryOp::kEq:
        return "eq";
      case BinaryOp::kNe:
        return "ne";
      case BinaryOp::kAnd:
        return "and";
      case BinaryOp::kOr:
        return "or";
      case BinaryOp::kAdd:
        return "add";
      case BinaryOp::kSub:
        return "sub";
      case BinaryOp::kMul:
        return "mul";
      case BinaryOp::kDiv:
        return "div";
      case BinaryOp::kMod:
        return "mod";
    }
    return "?";
  }

  static std::string expr(const Expr& e) {
    const std::string line = std::to_string(e.line);
    switch (e.kind) {
      case Expr::Kind::kValue:
        return "(val " + line + ' ' + word(e.value) + ')';
      case Expr::Kind::kNot:
        return "(not " + line + ' ' + expr(*e.child) + ')';
      case Expr::Kind::kExists:
        return "(exists " + line + ' ' + expr(*e.child) + ')';
      case Expr::Kind::kBinary:
        break;
    }
    return std::string("(") + op_name(e.op) + ' ' + line + ' ' +
           expr(*e.lhs) + ' ' + expr(*e.rhs) + ')';
  }

  void indent(int depth) { out_.append(std::size_t(depth) * 2, ' '); }

  void group(const Group& g, int depth) {
    for (const auto& stmt : g.statements) statement(*stmt, depth);
  }

  // "(tag" + body lines + ")" for a nested group.
  void block(const char* tag, const Group& g, int depth) {
    indent(depth);
    out_ += std::string("(") + tag + '\n';
    group(g, depth + 1);
    indent(depth);
    out_ += ")\n";
  }

  void statement(const Statement& s, int depth) {
    const std::string line = std::to_string(s.line);
    indent(depth);
    switch (s.kind) {
      case Statement::Kind::kCommand: {
        const CommandStmt& c = s.as<CommandStmt>();
        out_ += "(command " + line + ' ' + words("argv", c.argv);
        const Redirections& r = c.redirects;
        if (r.stdin_file) out_ += " (stdin " + word(*r.stdin_file) + ')';
        if (r.stdout_file) out_ += " (stdout " + word(*r.stdout_file) + ')';
        if (r.stdout_append) out_ += " append";
        if (r.merge_stderr) out_ += " merge-stderr";
        if (r.stdin_var) out_ += " (stdin-var " + word(*r.stdin_var) + ')';
        if (r.stdout_var) out_ += " (stdout-var " + word(*r.stdout_var) + ')';
        out_ += ")\n";
        return;
      }
      case Statement::Kind::kTry: {
        const TryStmt& t = s.as<TryStmt>();
        out_ += "(try " + line;
        if (!t.time_words.empty()) out_ += ' ' + words("for", t.time_words);
        if (t.attempts_word) out_ += " (times " + word(*t.attempts_word) + ')';
        out_ += '\n';
        block("body", t.body, depth + 1);
        if (t.catch_body) block("catch", *t.catch_body, depth + 1);
        break;
      }
      case Statement::Kind::kFor: {
        const ForStmt& f = s.as<ForStmt>();
        out_ += std::string(f.mode == ForStmt::Mode::kAny ? "(forany "
                                                           : "(forall ") +
                line + ' ' + std::string(f.variable) + ' ' +
                words("in", f.list) + '\n';
        block("body", f.body, depth + 1);
        break;
      }
      case Statement::Kind::kIf: {
        const IfStmt& i = s.as<IfStmt>();
        out_ += "(if " + line + ' ' + expr(*i.condition) + '\n';
        block("then", i.then_body, depth + 1);
        if (i.else_body) block("else", *i.else_body, depth + 1);
        break;
      }
      case Statement::Kind::kWhile: {
        const WhileStmt& w = s.as<WhileStmt>();
        out_ += "(while " + line + ' ' + expr(*w.condition) + '\n';
        block("body", w.body, depth + 1);
        break;
      }
      case Statement::Kind::kFunction: {
        const FunctionDef& f = s.as<FunctionDef>();
        out_ += "(function " + line + ' ' + std::string(f.name) + " (params";
        for (const auto& p : f.parameters) out_ += ' ' + std::string(p);
        out_ += ")\n";
        block("body", f.body, depth + 1);
        break;
      }
      case Statement::Kind::kAssignment:
        out_ += "(assign " + line + ' ' +
                std::string(s.as<AssignmentStmt>().name) + ' ' +
                expr(*s.as<AssignmentStmt>().value) + ")\n";
        return;
      case Statement::Kind::kFailure:
        out_ += "(failure " + line + ")\n";
        return;
      case Statement::Kind::kReturn:
        out_ += "(return " + line + ")\n";
        return;
    }
    indent(depth);
    out_ += ")\n";
  }

  std::string out_;
};

}  // namespace ethergrid::shell::testing
