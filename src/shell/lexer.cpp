#include "shell/lexer.hpp"

#include "util/strings.hpp"

namespace ethergrid::shell {

std::string_view token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kWord:
      return "word";
    case TokenKind::kString:
      return "string";
    case TokenKind::kNewline:
      return "newline";
    case TokenKind::kRedirectIn:
      return "<";
    case TokenKind::kRedirectOut:
      return ">";
    case TokenKind::kRedirectApp:
      return ">>";
    case TokenKind::kRedirectBoth:
      return ">&";
    case TokenKind::kVarIn:
      return "-<";
    case TokenKind::kVarOut:
      return "->";
    case TokenKind::kVarBoth:
      return "->&";
    case TokenKind::kEof:
      return "eof";
  }
  return "?";
}

namespace {

class Lexer {
 public:
  Lexer(char* text, std::size_t size, std::pmr::vector<Token>* tokens)
      : src_(text), size_(size), tokens_(*tokens) {}

  Status run() {
    while (pos_ < size_) {
      const char c = src_[pos_];
      if (c == '\\' && pos_ + 1 < size_ && src_[pos_ + 1] == '\n') {
        pos_ += 2;  // line continuation
        ++line_;
        // A continuation joins lines but still separates tokens.
        pending_space_ = true;
        continue;
      }
      if (c == '\n' || c == ';') {
        emit_newline();
        if (c == '\n') ++line_;
        ++pos_;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r') {
        pending_space_ = true;
        ++pos_;
        continue;
      }
      if (c == '#' && pending_space_) {
        // Comments start only at token boundaries; mid-word '#' is literal
        // (so ${#} and file#1 lex as expected, like Bourne).
        while (pos_ < size_ && src_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '"' || c == '\'') {
        if (!lex_string(c)) return fail("unterminated string");
        continue;
      }
      if (c == '<') {
        emit_op(TokenKind::kRedirectIn, 1);
        continue;
      }
      if (c == '>') {
        if (peek(1) == '>') {
          emit_op(TokenKind::kRedirectApp, 2);
        } else if (peek(1) == '&') {
          emit_op(TokenKind::kRedirectBoth, 2);
        } else {
          emit_op(TokenKind::kRedirectOut, 1);
        }
        continue;
      }
      if (!lex_word()) return fail("bad character in word");
    }
    emit_newline();  // close the final statement
    Token eof;
    eof.kind = TokenKind::kEof;
    eof.line = line_;
    tokens_.push_back(eof);
    return Status::success();
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < size_ ? src_[pos_ + ahead] : '\0';
  }

  static bool is_word_break(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' ||
           c == '"' || c == '\'' || c == '<' || c == '>';
  }

  // Both scanners keep their cursor in locals: the resolved text is written
  // through a char pointer, which could alias any member.  The write
  // position never passes the read position.
  bool lex_word() {
    char* const src = src_;
    const std::size_t size = size_;
    std::size_t pos = pos_;
    char* out = src + pos;
    const char* const start = out;
    while (pos < size && !is_word_break(src[pos])) {
      const char c = src[pos];
      if (c == '\\') {
        if (pos + 1 >= size) return false;
        if (src[pos + 1] == '\n') break;  // continuation handled outside
        *out++ = src[pos + 1];
        pos += 2;
        continue;
      }
      if (c == '$' && pos + 1 < size && src[pos + 1] == '{') {
        // ${...} is one unit even across spaces and operators (so that
        // ${mirrors:-m1 m2} stays a single word, as in Bourne).
        *out++ = '$';
        *out++ = '{';
        pos += 2;
        while (pos < size && src[pos] != '}' && src[pos] != '\n') {
          *out++ = src[pos++];
        }
        if (pos >= size || src[pos] != '}') {
          return false;  // unterminated ${...}
        }
        *out++ = '}';
        ++pos;
        continue;
      }
      *out++ = c;
      ++pos;
    }
    pos_ = pos;
    const std::string_view text(start, std::size_t(out - start));
    // A '-' word that stopped at '<' or '>' may be a variable redirection.
    if (text == "-" && pos_ < size_) {
      if (src_[pos_] == '<') {
        ++pos_;
        push(TokenKind::kVarIn, "-<");
        return true;
      }
      if (src_[pos_] == '>') {
        ++pos_;
        if (pos_ < size_ && src_[pos_] == '&') {
          ++pos_;
          push(TokenKind::kVarBoth, "->&");
        } else {
          push(TokenKind::kVarOut, "->");
        }
        return true;
      }
    }
    push(TokenKind::kWord, text);
    return true;
  }

  bool lex_string(char quote) {
    char* const src = src_;
    const std::size_t size = size_;
    std::size_t pos = pos_ + 1;  // past the opening quote
    char* out = src + pos;
    const char* const start = out;
    int lines = 0;
    while (pos < size && src[pos] != quote) {
      const char c = src[pos];
      if (c == '\n') ++lines;
      if (quote == '"' && c == '\\' && pos + 1 < size) {
        const char next = src[pos + 1];
        if (next == '"' || next == '\\' || next == '$' || next == 'n' ||
            next == 't') {
          *out++ = next == 'n' ? '\n' : next == 't' ? '\t' : next;
          pos += 2;
          continue;
        }
      }
      *out++ = c;
      ++pos;
    }
    line_ += lines;
    if (pos >= size) return false;
    pos_ = pos + 1;  // past the closing quote
    push(TokenKind::kString, std::string_view(start, std::size_t(out - start)),
         quote == '\'');
    return true;
  }

  void emit_op(TokenKind kind, int width) {
    pos_ += std::size_t(width);
    push(kind, token_kind_name(kind));
  }

  void push(TokenKind kind, std::string_view text, bool literal = false) {
    Token t;
    t.kind = kind;
    t.text = text;
    t.literal = literal;
    t.line = line_;
    t.glued = !pending_space_ && !tokens_.empty() &&
              tokens_.back().kind != TokenKind::kNewline &&
              tokens_.back().line == line_;
    pending_space_ = false;
    tokens_.push_back(t);
  }

  void emit_newline() {
    pending_space_ = true;
    if (tokens_.empty() || tokens_.back().kind == TokenKind::kNewline) return;
    Token t;
    t.kind = TokenKind::kNewline;
    t.line = line_;
    tokens_.push_back(t);
  }

  Status fail(const char* message) {
    return Status::invalid_argument(strprintf("line %d: %s", line_, message));
  }

  char* src_;
  std::size_t size_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool pending_space_ = true;
  std::pmr::vector<Token>& tokens_;
};

}  // namespace

Status lex_in_place(char* text, std::size_t size,
                    std::pmr::vector<Token>* tokens) {
  return Lexer(text, size, tokens).run();
}

LexResult lex(std::string_view source) {
  LexResult r;
  r.text = std::make_unique<char[]>(source.size());
  source.copy(r.text.get(), source.size());
  r.status = lex_in_place(r.text.get(), source.size(), &r.tokens);
  if (r.status.failed()) r.tokens.clear();
  return r;
}

}  // namespace ethergrid::shell
