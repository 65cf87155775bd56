#include "shell/parser.hpp"

#include <gtest/gtest.h>

namespace ethergrid::shell {
namespace {

std::shared_ptr<Script> parse_ok(std::string_view src) {
  ParseResult r = parse_script(src);
  EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  return r.script;
}

Status parse_err(std::string_view src) {
  ParseResult r = parse_script(src);
  EXPECT_TRUE(r.status.failed()) << "expected parse failure for: " << src;
  return r.status;
}

const Statement& only_stmt(const Script& s) {
  EXPECT_EQ(s.top.statements.size(), 1u);
  return *s.top.statements[0];
}

TEST(ParserTest, EmptyScript) {
  auto s = parse_ok("\n\n# just a comment\n");
  EXPECT_TRUE(s->top.statements.empty());
}

TEST(ParserTest, SimpleCommand) {
  auto s = parse_ok("wget http://server/file.tar.gz");
  const Statement& stmt = only_stmt(*s);
  EXPECT_EQ(stmt.kind, Statement::Kind::kCommand);
  ASSERT_EQ(stmt.as<CommandStmt>().argv.size(), 2u);
  EXPECT_TRUE(stmt.as<CommandStmt>().argv[0].is_literal("wget"));
}

TEST(ParserTest, CommandWithVariables) {
  auto s = parse_ok("wget http://${server}/file");
  const Statement& stmt = only_stmt(*s);
  const Word& url = stmt.as<CommandStmt>().argv[1];
  ASSERT_EQ(url.segments.size(), 3u);
  EXPECT_EQ(url.segments[0].text, "http://");
  EXPECT_EQ(url.segments[1].kind, WordSegment::Kind::kVariable);
  EXPECT_EQ(url.segments[1].text, "server");
  EXPECT_EQ(url.segments[2].text, "/file");
}

TEST(ParserTest, DollarNameVariable) {
  auto s = parse_ok("fetch-file $host filename");
  const Word& arg = only_stmt(*s).as<CommandStmt>().argv[1];
  ASSERT_EQ(arg.segments.size(), 1u);
  EXPECT_EQ(arg.segments[0].kind, WordSegment::Kind::kVariable);
  EXPECT_EQ(arg.segments[0].text, "host");
}

TEST(ParserTest, GluedQuotedPiecesFormOneArgument) {
  auto s = parse_ok("echo \"a b\"c");
  const Statement& stmt = only_stmt(*s);
  ASSERT_EQ(stmt.as<CommandStmt>().argv.size(), 2u);
  EXPECT_EQ(stmt.as<CommandStmt>().argv[1].describe(), "a bc");
}

TEST(ParserTest, Redirections) {
  auto s = parse_ok("run-simulation ->& tmp < in > out");
  const Redirections& r = only_stmt(*s).as<CommandStmt>().redirects;
  ASSERT_TRUE(r.stdout_var.has_value());
  EXPECT_TRUE(r.stdout_var->is_literal("tmp"));
  EXPECT_TRUE(r.merge_stderr);
  ASSERT_TRUE(r.stdin_file.has_value());
  EXPECT_TRUE(r.stdin_file->is_literal("in"));
  ASSERT_TRUE(r.stdout_file.has_value());
  EXPECT_FALSE(r.stdout_append);
}

TEST(ParserTest, AppendRedirect) {
  auto s = parse_ok("cmd >> log");
  EXPECT_TRUE(only_stmt(*s).as<CommandStmt>().redirects.stdout_append);
}

TEST(ParserTest, VarInputRedirect) {
  auto s = parse_ok("cat -< tmp");
  ASSERT_TRUE(only_stmt(*s).as<CommandStmt>().redirects.stdin_var.has_value());
}

TEST(ParserTest, RedirectionWithoutCommandFails) {
  parse_err("> out");
}

TEST(ParserTest, TryForDuration) {
  auto s = parse_ok("try for 30 minutes\n  a\nend");
  const Statement& stmt = only_stmt(*s);
  ASSERT_EQ(stmt.kind, Statement::Kind::kTry);
  ASSERT_EQ(stmt.as<TryStmt>().time_words.size(), 2u);
  EXPECT_TRUE(stmt.as<TryStmt>().time_words[0].is_literal("30"));
  EXPECT_TRUE(stmt.as<TryStmt>().time_words[1].is_literal("minutes"));
  EXPECT_FALSE(stmt.as<TryStmt>().attempts_word.has_value());
  EXPECT_EQ(stmt.as<TryStmt>().body.statements.size(), 1u);
  EXPECT_FALSE(stmt.as<TryStmt>().catch_body.has_value());
}

TEST(ParserTest, TryTimes) {
  auto s = parse_ok("try 5 times\n  a\nend");
  const TryStmt& t = only_stmt(*s).as<TryStmt>();
  EXPECT_TRUE(t.time_words.empty());
  ASSERT_TRUE(t.attempts_word.has_value());
  EXPECT_TRUE(t.attempts_word->is_literal("5"));
}

TEST(ParserTest, TryForOrTimes) {
  auto s = parse_ok("try for 1 hour or 3 times\n  a\nend");
  const TryStmt& t = only_stmt(*s).as<TryStmt>();
  ASSERT_EQ(t.time_words.size(), 2u);
  EXPECT_TRUE(t.time_words[1].is_literal("hour"));
  ASSERT_TRUE(t.attempts_word.has_value());
  EXPECT_TRUE(t.attempts_word->is_literal("3"));
}

TEST(ParserTest, TryWithVariableLimits) {
  auto s = parse_ok("try for ${t} minutes or ${n} times\n  a\nend");
  const TryStmt& t = only_stmt(*s).as<TryStmt>();
  ASSERT_EQ(t.time_words.size(), 2u);
  EXPECT_EQ(t.time_words[0].segments[0].kind, WordSegment::Kind::kVariable);
  ASSERT_TRUE(t.attempts_word.has_value());
}

TEST(ParserTest, TryCatch) {
  auto s = parse_ok(
      "try 5 times\n  wget x\ncatch\n  rm -f x\n  failure\nend");
  const TryStmt& t = only_stmt(*s).as<TryStmt>();
  ASSERT_TRUE(t.catch_body.has_value());
  EXPECT_EQ(t.catch_body->statements.size(), 2u);
  EXPECT_EQ(t.catch_body->statements[1]->kind, Statement::Kind::kFailure);
}

TEST(ParserTest, TryWithoutLimitsFails) { parse_err("try\n  a\nend"); }

TEST(ParserTest, TryMissingEndFails) { parse_err("try 5 times\n  a\n"); }

TEST(ParserTest, BadTryHeaderFails) {
  parse_err("try quickly\n  a\nend");
  parse_err("try for\n  a\nend");
}

TEST(ParserTest, NestedTry) {
  auto s = parse_ok(R"(
try for 30 minutes
  try for 5 minutes
    wget http://server/file.tar.gz
  end
  try for 1 minute or 3 times
    gunzip file.tar.gz
    tar xvf file.tar
  end
end
)");
  const TryStmt& outer = only_stmt(*s).as<TryStmt>();
  ASSERT_EQ(outer.body.statements.size(), 2u);
  EXPECT_EQ(outer.body.statements[0]->kind, Statement::Kind::kTry);
  EXPECT_EQ(outer.body.statements[1]->kind, Statement::Kind::kTry);
  EXPECT_EQ(outer.body.statements[1]->as<TryStmt>().body.statements.size(), 2u);
}

TEST(ParserTest, ForanyAndForall) {
  auto s = parse_ok("forany server in xxx yyy zzz\n  wget ${server}\nend");
  const ForStmt& f = only_stmt(*s).as<ForStmt>();
  EXPECT_EQ(f.mode, ForStmt::Mode::kAny);
  EXPECT_EQ(f.variable, "server");
  ASSERT_EQ(f.list.size(), 3u);
  EXPECT_TRUE(f.list[2].is_literal("zzz"));

  s = parse_ok("forall file in a b\n  wget ${file}\nend");
  EXPECT_EQ(only_stmt(*s).as<ForStmt>().mode, ForStmt::Mode::kAll);
}

TEST(ParserTest, ForanyRequiresInAndList) {
  parse_err("forany server xxx\n  a\nend");
  parse_err("forany server in\n  a\nend");
  parse_err("forany in a b\n  c\nend");  // 'in' is not an identifier issue
}

TEST(ParserTest, IfElse) {
  auto s = parse_ok(
      "if ${n} .lt. 1000\n  failure\nelse\n  condor_submit job\nend");
  const IfStmt& i = only_stmt(*s).as<IfStmt>();
  ASSERT_NE(i.condition, nullptr);
  EXPECT_EQ(i.condition->kind, Expr::Kind::kBinary);
  EXPECT_EQ(i.condition->op, BinaryOp::kLt);
  EXPECT_EQ(i.then_body.statements.size(), 1u);
  ASSERT_TRUE(i.else_body.has_value());
  EXPECT_EQ(i.else_body->statements.size(), 1u);
}

TEST(ParserTest, ElseIfChain) {
  auto s = parse_ok(R"(
if ${x} .eq. 1
  a
else if ${x} .eq. 2
  b
else
  c
end
)");
  const IfStmt& i = only_stmt(*s).as<IfStmt>();
  ASSERT_TRUE(i.else_body.has_value());
  ASSERT_EQ(i.else_body->statements.size(), 1u);
  EXPECT_EQ(i.else_body->statements[0]->kind, Statement::Kind::kIf);
}

TEST(ParserTest, WhileLoop) {
  auto s = parse_ok("while ${i} .lt. 10\n  i = ${i} .add. 1\nend");
  const Statement& stmt = only_stmt(*s);
  EXPECT_EQ(stmt.kind, Statement::Kind::kWhile);
  EXPECT_EQ(stmt.as<WhileStmt>().body.statements.size(), 1u);
  EXPECT_EQ(stmt.as<WhileStmt>().body.statements[0]->kind,
            Statement::Kind::kAssignment);
}

TEST(ParserTest, ExpressionPrecedence) {
  // a .lt. b .and. c .lt. d  =>  (a<b) .and. (c<d)
  auto s = parse_ok("if 1 .lt. 2 .and. 3 .lt. 4\n  a\nend");
  const Expr& e = *only_stmt(*s).as<IfStmt>().condition;
  EXPECT_EQ(e.op, BinaryOp::kAnd);
  EXPECT_EQ(e.lhs->op, BinaryOp::kLt);
  EXPECT_EQ(e.rhs->op, BinaryOp::kLt);
}

TEST(ParserTest, ArithmeticPrecedence) {
  // 1 .add. 2 .mul. 3  =>  1 + (2*3)
  auto s = parse_ok("x = 1 .add. 2 .mul. 3");
  const Expr& e = *only_stmt(*s).as<AssignmentStmt>().value;
  EXPECT_EQ(e.op, BinaryOp::kAdd);
  EXPECT_EQ(e.rhs->op, BinaryOp::kMul);
}

TEST(ParserTest, NotAndExists) {
  auto s = parse_ok("if .not. .exists. /tmp/file\n  a\nend");
  const Expr& e = *only_stmt(*s).as<IfStmt>().condition;
  EXPECT_EQ(e.kind, Expr::Kind::kNot);
  EXPECT_EQ(e.child->kind, Expr::Kind::kExists);
}

TEST(ParserTest, OperatorNeedsLeftOperand) {
  parse_err("if .lt. 3\n  a\nend");
}

TEST(ParserTest, AssignmentSingleToken) {
  auto s = parse_ok("x=5");
  const Statement& stmt = only_stmt(*s);
  ASSERT_EQ(stmt.kind, Statement::Kind::kAssignment);
  EXPECT_EQ(stmt.as<AssignmentStmt>().name, "x");
  EXPECT_TRUE(stmt.as<AssignmentStmt>().value->value.is_literal("5"));
}

TEST(ParserTest, AssignmentSpacedExpression) {
  auto s = parse_ok("n = ${n} .add. 1");
  const Statement& stmt = only_stmt(*s);
  ASSERT_EQ(stmt.kind, Statement::Kind::kAssignment);
  EXPECT_EQ(stmt.as<AssignmentStmt>().name, "n");
  EXPECT_EQ(stmt.as<AssignmentStmt>().value->kind, Expr::Kind::kBinary);
}

TEST(ParserTest, AssignmentWithVariableValue) {
  auto s = parse_ok("dest=${base}.out");
  const Statement& stmt = only_stmt(*s);
  ASSERT_EQ(stmt.kind, Statement::Kind::kAssignment);
  ASSERT_EQ(stmt.as<AssignmentStmt>().value->value.segments.size(), 2u);
}

TEST(ParserTest, NonIdentifierEqualsIsCommand) {
  // argv[0] containing '=' but not starting with an identifier stays a
  // command ('=' has no special lexing).
  auto s = parse_ok("make CFLAGS=-O2");
  EXPECT_EQ(only_stmt(*s).kind, Statement::Kind::kCommand);
}

TEST(ParserTest, FunctionDefinition) {
  auto s = parse_ok("function get host file\n  wget ${host}/${file}\nend");
  const Statement& stmt = only_stmt(*s);
  ASSERT_EQ(stmt.kind, Statement::Kind::kFunction);
  EXPECT_EQ(stmt.as<FunctionDef>().name, "get");
  const auto& parameters = stmt.as<FunctionDef>().parameters;
  EXPECT_EQ(std::vector<std::string>(parameters.begin(), parameters.end()),
            (std::vector<std::string>{"host", "file"}));
  EXPECT_EQ(stmt.as<FunctionDef>().body.statements.size(), 1u);
}

TEST(ParserTest, FailureAndReturn) {
  auto s = parse_ok("failure");
  EXPECT_EQ(only_stmt(*s).kind, Statement::Kind::kFailure);
  s = parse_ok("return");
  EXPECT_EQ(only_stmt(*s).kind, Statement::Kind::kReturn);
  parse_err("failure now");  // no arguments allowed
}

TEST(ParserTest, StrayKeywordsFail) {
  parse_err("end");
  parse_err("catch");
  parse_err("else");
}

TEST(ParserTest, FullPaperScriptParses) {
  auto s = parse_ok(R"(
# The Ethernet submitter from section 5.
try for 5 minutes
  cut -f2 /proc/sys/fs/file-nr -> n
  if ${n} .lt. 1000
    failure
  else
    condor_submit submit.job
  end
end
)");
  EXPECT_EQ(s->top.statements.size(), 1u);
}

TEST(ParserTest, BlackHoleReaderScriptParses) {
  auto s = parse_ok(R"(
try for 900 seconds
  forany host in xxx yyy zzz
    try for 5 seconds
      wget http://$host/flag
    end
    try for 60 seconds
      wget http://$host/data
    end
  end
end
)");
  EXPECT_EQ(s->top.statements.size(), 1u);
}

}  // namespace
}  // namespace ethergrid::shell
