// Lexer for ftsh scripts.
//
// Lexical rules (documented fully in docs/LANGUAGE.md):
//  * '#' starts a comment to end of line;
//  * newline and ';' separate statements; '\' before a newline continues;
//  * '<' and '>' always terminate a word ('>file' is '>' then 'file');
//    '>>' and '>&' are recognized as units;
//  * a word consisting exactly of '->', '->&' or '-<' is a variable
//    redirection operator ('-' does NOT otherwise break words, so flags
//    like '-f' and names like 'run-simulation' lex as plain words);
//  * double quotes group text into one token with interpolation preserved;
//    single quotes group literally; adjacent quoted/unquoted pieces glue
//    into one argument;
//  * backslash escapes the next character inside words and double quotes.
//
// The lexer resolves escapes in place (resolved text is never longer than
// raw text), so every token's text is a view into the lexed buffer.
#pragma once

#include <memory>
#include <memory_resource>
#include <vector>

#include "shell/token.hpp"
#include "util/status.hpp"

namespace ethergrid::shell {

// Lexes text[0, size) in place, appending the tokens to *tokens.  Returns
// kInvalidArgument with line info on malformed input.
Status lex_in_place(char* text, std::size_t size,
                    std::pmr::vector<Token>* tokens);

struct LexResult {
  Status status;  // kInvalidArgument with line info on malformed input
  std::pmr::vector<Token> tokens;
  std::unique_ptr<char[]> text;  // the lexed copy the tokens view
};

// Lexes a copy of source.
LexResult lex(std::string_view source);

}  // namespace ethergrid::shell
