// Parser for ftsh.  See docs/LANGUAGE.md for the grammar.
#pragma once

#include <memory>

#include "shell/ast.hpp"
#include "util/status.hpp"

namespace ethergrid::shell {

// Blocks open at once, and prefix operators (`.not.`, `.exists.`) chained
// in one expression, beyond which a parse fails with "nesting too deep".
// Blocks are parsed on an explicit stack, so the parser's own stack use
// does not grow with depth.
inline constexpr std::size_t kMaxNestingDepth = 4096;

struct ParseResult {
  Status status;  // kInvalidArgument with "line N: ..." on syntax errors
  std::shared_ptr<Script> script;
};

// Parses a complete script from source text (lexes internally).
ParseResult parse_script(std::string_view source);

}  // namespace ethergrid::shell
