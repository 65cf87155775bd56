// Front-end robustness: malformed and adversarial input must produce a
// clean parse error (or parse fine), never a crash, hang, or silent
// acceptance of nonsense.  Includes a deterministic token-soup fuzz sweep.
#include <gtest/gtest.h>

#include "shell/interpreter.hpp"
#include "shell/parser.hpp"
#include "shell/sim_executor.hpp"
#include "util/rng.hpp"

namespace ethergrid::shell {
namespace {

class MalformedInputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedInputTest, FailsCleanly) {
  ParseResult r = parse_script(GetParam());
  EXPECT_TRUE(r.status.failed()) << "accepted: " << GetParam();
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status.message().find("line"), std::string::npos)
      << "no line info: " << r.status.message();
}

INSTANTIATE_TEST_SUITE_P(
    UnbalancedConstructs, MalformedInputTest,
    ::testing::Values("try 1 times\n  a\n",              //
                      "forany x in a\n  b\n",            //
                      "if 1 .lt. 2\n  a\n",              //
                      "while 1 .lt. 2\n  a\n",           //
                      "function f\n  a\n",               //
                      "end",                             //
                      "catch\n  a\nend",                 //
                      "else\n  a\nend",                  //
                      "try 1 times\n a\nend\nend"));

INSTANTIATE_TEST_SUITE_P(
    BadHeaders, MalformedInputTest,
    ::testing::Values("try\n  a\nend",                   //
                      "try for\n  a\nend",               //
                      "try maybe 5\n  a\nend",           //
                      "forany in a b\n  c\nend",         //
                      "forany 9bad in a\n  c\nend",      //
                      "forall x a b\n  c\nend",          //
                      "if\n  a\nend",                    //
                      "while\n  a\nend",                 //
                      "function\n  a\nend",              //
                      "function 3f\n  a\nend"));

INSTANTIATE_TEST_SUITE_P(
    BadExpressions, MalformedInputTest,
    ::testing::Values("if .lt. 2\n  a\nend",             //
                      "if 1 .lt.\n  a\nend",             //
                      "if 1 .lt. 2 extra words .\n  a\nend",
                      "x = 1 .add.",                     //
                      "x = .mul. 3",                     //
                      "failure with args"));

INSTANTIATE_TEST_SUITE_P(
    BadRedirections, MalformedInputTest,
    ::testing::Values("cmd >",      //
                      "cmd <",      //
                      "cmd ->",     //
                      "cmd -<",     //
                      "> file",     //
                      "echo \"unterminated"));

class WellFormedOddInputTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(WellFormedOddInputTest, Parses) {
  ParseResult r = parse_script(GetParam());
  EXPECT_TRUE(r.status.ok()) << GetParam() << ": " << r.status.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Odd, WellFormedOddInputTest,
    ::testing::Values(
        "",                               // empty script
        "\n\n\n;;;\n",                    // separators only
        "# nothing but a comment",        //
        "cmd - -- --- -<x",               // dashes everywhere
        "cmd a=b c=d",                    // '=' in non-head argv words
        "x=",                             // empty assignment value
        "echo ''\necho \"\"",             // empty strings
        "try 999999999 times\n a\nend",   // absurd but well-formed
        "echo $ $$ ${}x",                 // degenerate dollars
        "echo \"a\nb\"",                  // embedded newline in string
        "f() { not shell }"));            // C-shell-isms are just words

// Deterministic fuzz: random token soup.  The parser must terminate with
// either result and never crash.
TEST(FuzzTest, TokenSoupNeverCrashes) {
  const char* vocabulary[] = {
      "try",  "catch",  "end",   "forany", "forall", "if",     "else",
      "while", "function", "failure", "return", "in",  "for",  "times",
      "or",   ".lt.",   ".and.", ".not.",  ".exists.", "echo", "x",
      "${x}", "$y",     "\"q\"", "'lit'",  "5",      "=",      ";",
      ">",    "<",      ">>",    ">&",     "->",     "-<",     "->&",
      "\n",   "\\\n",   "#c\n",  "a=b",    "-",      "--",     "${",
  };
  Rng rng(20030603);  // HPDC-12's opening day
  for (int round = 0; round < 2000; ++round) {
    std::string script;
    const int length = int(rng.uniform_int(0, 40));
    for (int i = 0; i < length; ++i) {
      script += vocabulary[rng.uniform_int(
          0, std::int64_t(std::size(vocabulary)) - 1)];
      script += rng.chance(0.7) ? " " : "";
    }
    ParseResult r = parse_script(script);
    if (r.status.ok()) {
      ASSERT_NE(r.script, nullptr) << script;
    } else {
      ASSERT_EQ(r.status.code(), StatusCode::kInvalidArgument) << script;
    }
  }
}

// `depth` nested `try 1 times` blocks around one command.
std::string nested_tries(std::size_t depth) {
  std::string script;
  for (std::size_t i = 0; i < depth; ++i) script += "try 1 times\n";
  script += "echo deep\n";
  for (std::size_t i = 0; i < depth; ++i) script += "end\n";
  return script;
}

// The status a script nested too deep must fail with: at the first block
// past the limit, which opens on that line.
void expect_too_deep(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "line " + std::to_string(kMaxNestingDepth + 1) +
                ": nesting too deep");
}

// Deep nesting must not blow the stack at sane depths and must balance;
// beyond the limit it fails with a Status, on the main thread and on a
// simulated process's default (256 KiB) fiber stack alike.
TEST(FuzzTest, DeepNestingParses) {
  const std::string too_deep = nested_tries(50'000);
  expect_too_deep(parse_script(too_deep).status);
  sim::Kernel kernel;
  SimExecutor executor(kernel);
  Status on_fiber;
  kernel.spawn("ftsh", [&](sim::Context& ctx) {
    SimExecutor::ContextBinding binding(executor, ctx);
    expect_too_deep(parse_script(too_deep).status);
    Interpreter interpreter(executor);
    Environment env;
    on_fiber = interpreter.run_source(too_deep, env);
  });
  kernel.run();
  expect_too_deep(on_fiber);
  EXPECT_TRUE(parse_script(nested_tries(kMaxNestingDepth)).status.ok());

  const int depth = 200;
  ParseResult r = parse_script(nested_tries(depth));
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  // Walk down to verify the chain depth.
  const Statement* stmt = r.script->top.statements[0];
  int seen = 1;
  while (stmt->kind == Statement::Kind::kTry &&
         !stmt->as<TryStmt>().body.statements.empty() &&
         stmt->as<TryStmt>().body.statements[0]->kind ==
             Statement::Kind::kTry) {
    stmt = stmt->as<TryStmt>().body.statements[0];
    ++seen;
  }
  EXPECT_EQ(seen, depth);
}

// `.not.` chains share the block limit: the expression parser keeps its
// operators on a stack, and the interpreter would recurse per operator.
TEST(FuzzTest, LongNotChainFailsWithStatus) {
  auto chain = [](std::size_t n) {
    std::string script = "x =";
    for (std::size_t i = 0; i < n; ++i) script += " .not.";
    return script + " true";
  };
  EXPECT_TRUE(parse_script(chain(kMaxNestingDepth)).status.ok());
  const Status status = parse_script(chain(50'000)).status;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "line 1: nesting too deep");
}

TEST(FuzzTest, LongFlatScriptParses) {
  std::string script;
  for (int i = 0; i < 20000; ++i) {
    script += "echo line" + std::to_string(i) + "\n";
  }
  ParseResult r = parse_script(script);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.script->top.statements.size(), 20000u);
}

}  // namespace
}  // namespace ethergrid::shell
