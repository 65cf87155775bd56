// Token stream for the fault tolerant shell (ftsh).
#pragma once

#include <cstdint>
#include <string_view>

namespace ethergrid::shell {

enum class TokenKind : std::uint8_t {
  kWord,          // command name, argument, keyword, expression operator
  kString,        // quoted word (kept distinct so keywords are not matched)
  kNewline,       // statement separator (also ';')
  kRedirectIn,    // <   file
  kRedirectOut,   // >   file
  kRedirectApp,   // >>  file
  kRedirectBoth,  // >&  file       (stdout+stderr)
  kVarIn,         // -<  var
  kVarOut,        // ->  var
  kVarBoth,       // ->& var
  kEof,
};

std::string_view token_kind_name(TokenKind kind);

struct Token {
  // For kWord/kString: the text (quotes stripped, escapes resolved,
  // interpolation NOT yet performed -- that happens at evaluation).  A view
  // into the lexed buffer, whose escapes the lexer resolved in place.
  std::string_view text;
  int line = 0;
  TokenKind kind = TokenKind::kEof;
  // kString only: single-quoted, no interpolation at eval time.
  bool literal = false;
  // No whitespace between this token and the previous one: "a"b is one
  // argument assembled from two glued tokens.
  bool glued = false;

  bool is_word(std::string_view w) const {
    return kind == TokenKind::kWord && text == w;
  }
};

}  // namespace ethergrid::shell
