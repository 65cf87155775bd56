#include "shell/lexer.hpp"

#include <gtest/gtest.h>

namespace ethergrid::shell {
namespace {

// Tokens view the result's copy of the source, so the helper hands back
// the whole result, indexable like its token list.
struct Lexed : LexResult {
  const Token& operator[](std::size_t i) const { return tokens[i]; }
  std::size_t size() const { return tokens.size(); }
  auto begin() const { return tokens.begin(); }
  auto end() const { return tokens.end(); }
};

Lexed lex_ok(std::string_view src) {
  Lexed r{lex(src)};
  EXPECT_TRUE(r.status.ok()) << r.status.to_string();
  return r;
}

TEST(LexerTest, EmptyInputIsJustEof) {
  auto tokens = lex_ok("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEof);
}

TEST(LexerTest, SimpleCommand) {
  auto tokens = lex_ok("wget http://server/file.tar.gz");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_TRUE(tokens[0].is_word("wget"));
  EXPECT_TRUE(tokens[1].is_word("http://server/file.tar.gz"));
  EXPECT_EQ(tokens[2].kind, TokenKind::kNewline);
  EXPECT_EQ(tokens[3].kind, TokenKind::kEof);
}

TEST(LexerTest, NewlinesAndSemicolonsSeparate) {
  auto tokens = lex_ok("a\nb;c");
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kWord, TokenKind::kNewline, TokenKind::kWord,
                       TokenKind::kNewline, TokenKind::kWord,
                       TokenKind::kNewline, TokenKind::kEof}));
}

TEST(LexerTest, ConsecutiveSeparatorsCollapse) {
  auto tokens = lex_ok("a\n\n\n;;b");
  ASSERT_EQ(tokens.size(), 5u);  // a NL b NL EOF
}

TEST(LexerTest, CommentsIgnoredToEndOfLine) {
  auto tokens = lex_ok("a b # comment with try end\nc");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_TRUE(tokens[0].is_word("a"));
  EXPECT_TRUE(tokens[1].is_word("b"));
  EXPECT_EQ(tokens[2].kind, TokenKind::kNewline);
  EXPECT_TRUE(tokens[3].is_word("c"));
}

TEST(LexerTest, MidWordHashIsLiteral) {
  auto tokens = lex_ok("echo file#1 ${#}");
  EXPECT_TRUE(tokens[1].is_word("file#1"));
  EXPECT_TRUE(tokens[2].is_word("${#}"));
  // ... while a hash at a token boundary still comments.
  tokens = lex_ok("echo a #rest");
  ASSERT_EQ(tokens.size(), 4u);  // echo a NL EOF
}

TEST(LexerTest, LineContinuation) {
  auto tokens = lex_ok("a \\\n b");
  ASSERT_EQ(tokens.size(), 4u);  // a b NL EOF -- one statement
  EXPECT_TRUE(tokens[0].is_word("a"));
  EXPECT_TRUE(tokens[1].is_word("b"));
  EXPECT_FALSE(tokens[1].glued);  // continuation separates tokens
}

TEST(LexerTest, LineNumbersTracked) {
  auto tokens = lex_ok("a\nb\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[2].line, 2);
  EXPECT_EQ(tokens[4].line, 3);
}

TEST(LexerTest, RedirectionOperators) {
  auto tokens = lex_ok("cmd < in > out\ncmd >> log\ncmd >& both");
  EXPECT_EQ(tokens[1].kind, TokenKind::kRedirectIn);
  EXPECT_TRUE(tokens[2].is_word("in"));
  EXPECT_EQ(tokens[3].kind, TokenKind::kRedirectOut);
  EXPECT_EQ(tokens[7].kind, TokenKind::kRedirectApp);
  EXPECT_EQ(tokens[11].kind, TokenKind::kRedirectBoth);
}

TEST(LexerTest, RedirectBreaksWordsWithoutSpaces) {
  auto tokens = lex_ok("cmd>out");
  ASSERT_GE(tokens.size(), 3u);
  EXPECT_TRUE(tokens[0].is_word("cmd"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kRedirectOut);
  EXPECT_TRUE(tokens[2].is_word("out"));
}

TEST(LexerTest, VariableRedirections) {
  // The paper's examples: `run-simulation ->& tmp`, `cat -< tmp`,
  // `cut -f2 /proc/sys/fs/file-nr -> n`.
  auto tokens = lex_ok("run-simulation ->& tmp");
  EXPECT_TRUE(tokens[0].is_word("run-simulation"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kVarBoth);
  EXPECT_TRUE(tokens[2].is_word("tmp"));

  tokens = lex_ok("cat -< tmp");
  EXPECT_EQ(tokens[1].kind, TokenKind::kVarIn);

  tokens = lex_ok("cut -f2 /proc/sys/fs/file-nr -> n");
  EXPECT_TRUE(tokens[1].is_word("-f2"));  // '-' flags are plain words
  EXPECT_TRUE(tokens[2].is_word("/proc/sys/fs/file-nr"));
  EXPECT_EQ(tokens[3].kind, TokenKind::kVarOut);
  EXPECT_TRUE(tokens[4].is_word("n"));
}

TEST(LexerTest, HyphenatedWordsAreNotOperators) {
  auto tokens = lex_ok("rm -f file-name.tar");
  EXPECT_TRUE(tokens[1].is_word("-f"));
  EXPECT_TRUE(tokens[2].is_word("file-name.tar"));
}

TEST(LexerTest, DoubleQuotedStrings) {
  auto tokens = lex_ok("echo \"got file from ${server}\"");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].kind, TokenKind::kString);
  EXPECT_EQ(tokens[1].text, "got file from ${server}");
  EXPECT_FALSE(tokens[1].literal);
}

TEST(LexerTest, SingleQuotedStringsAreLiteral) {
  auto tokens = lex_ok("echo '${not_a_var}'");
  EXPECT_EQ(tokens[1].kind, TokenKind::kString);
  EXPECT_EQ(tokens[1].text, "${not_a_var}");
  EXPECT_TRUE(tokens[1].literal);
}

TEST(LexerTest, QuotesPreserveSpacesAndSpecials) {
  auto tokens = lex_ok("echo \"a > b; c # d\"");
  EXPECT_EQ(tokens[1].text, "a > b; c # d");
}

TEST(LexerTest, EscapesInDoubleQuotes) {
  auto tokens = lex_ok(R"(echo "a\"b\\c\$d\ne")");
  EXPECT_EQ(tokens[1].text, "a\"b\\c$d\ne");
}

TEST(LexerTest, BackslashEscapesInWords) {
  auto tokens = lex_ok(R"(echo a\ b)");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_TRUE(tokens[1].is_word("a b"));
}

TEST(LexerTest, GluedTokensMarked) {
  auto tokens = lex_ok("echo \"a\"b c");
  EXPECT_FALSE(tokens[1].glued);  // "a" follows whitespace
  EXPECT_TRUE(tokens[2].glued);   // b glued to "a"
  EXPECT_FALSE(tokens[3].glued);  // c separate
}

TEST(LexerTest, UnterminatedStringFails) {
  LexResult r = lex("echo \"oops");
  EXPECT_TRUE(r.status.failed());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, MultilineStringCountsLines) {
  auto r = lex("echo \"a\nb\"\nnext");
  ASSERT_TRUE(r.status.ok());
  // 'next' is on line 3.
  bool found = false;
  for (const auto& t : r.tokens) {
    if (t.is_word("next")) {
      EXPECT_EQ(t.line, 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, PaperExampleLexesCleanly) {
  const char* script = R"(
try for 1 hour
  forany host in xxx yyy zzz
    try for 5 minutes
      fetch-file $host filename
    end
  end
end
)";
  LexResult r = lex(script);
  EXPECT_TRUE(r.status.ok());
}

}  // namespace
}  // namespace ethergrid::shell
