// Abstract syntax tree for ftsh.
//
// Words carry interpolation segments; every construct that takes a value in
// the grammar (try limits, loop lists, expression operands) stores Words and
// resolves them at execution time, so `try for ${t} minutes` and
// `forany host in ${mirrors}` work naturally.
//
// One parse builds one Script, which owns a copy of the source and an arena
// holding every node, list and name (or a view of that copy).  Nodes are
// trivially destructible, so dropping a Script frees a few blocks without
// walking the tree.  A node is valid while its Script lives (function
// bodies keep theirs through an aliasing shared_ptr; docs/INTERNALS.md).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace ethergrid::shell {

// ------------------------------------------------------------------ words

struct WordSegment {
  enum class Kind : std::uint8_t { kLiteral, kVariable };
  // Behaviour when a variable segment's name is unset.
  enum class IfUnset : std::uint8_t {
    kError,          // ${name}: fail the statement (typo protection)
    kUseDefault,     // ${name:-default}: substitute without assigning
    kAssignDefault,  // ${name:=default}: assign, then substitute
  };

  Kind kind = Kind::kLiteral;
  // Variable segments from *unquoted* words undergo whitespace splitting in
  // list contexts (`forany h in ${hosts}` fans out); quoted ones do not.
  bool splittable = false;
  IfUnset if_unset = IfUnset::kError;
  std::string_view text;           // literal text, or the variable name
  std::string_view default_value;  // literal; used per if_unset
};

struct Word {
  std::span<const WordSegment> segments;
  int line = 0;

  // True if the word is a single literal segment equal to text.
  bool is_literal(std::string_view text) const {
    return segments.size() == 1 &&
           segments[0].kind == WordSegment::Kind::kLiteral &&
           segments[0].text == text;
  }

  // Lossy display form for diagnostics ("${x}.out").
  std::string describe() const;
};

// ------------------------------------------------------------ expressions

enum class BinaryOp : std::uint8_t {
  kLt,   // .lt.
  kGt,   // .gt.
  kLe,   // .le.
  kGe,   // .ge.
  kEq,   // .eq.
  kNe,   // .ne.
  kAnd,  // .and.
  kOr,   // .or.
  kAdd,  // .add.
  kSub,  // .sub.
  kMul,  // .mul.
  kDiv,  // .div.
  kMod,  // .mod.
};

struct Expr {
  enum class Kind : std::uint8_t { kValue, kNot, kExists, kBinary };
  Kind kind = Kind::kValue;
  BinaryOp op{};                // kBinary
  int line = 0;
  Word value;                   // kValue
  const Expr* child = nullptr;  // kNot / kExists
  const Expr* lhs = nullptr;    // kBinary
  const Expr* rhs = nullptr;
};

// ------------------------------------------------------------- statements

struct Statement;

struct Group {
  std::span<const Statement* const> statements;
};

// The common head of every statement node; `as<T>()` reaches the node of
// the statement's kind.
struct Statement {
  enum class Kind : std::uint8_t {
    kCommand,
    kTry,
    kFor,
    kIf,
    kWhile,
    kFunction,
    kAssignment,
    kFailure,  // the `failure` throw
    kReturn,   // early success return from a function / script
  };
  Kind kind = Kind::kCommand;
  int line = 0;

  template <class T>
  const T& as() const {
    return static_cast<const T&>(*this);
  }
};

struct Redirections {
  std::optional<Word> stdin_file;    // <  file
  std::optional<Word> stdout_file;   // >  file / >> file
  bool stdout_append = false;
  bool merge_stderr = false;         // >& / ->&
  std::optional<Word> stdin_var;     // -< var
  std::optional<Word> stdout_var;    // -> var / ->& var
};

struct CommandStmt : Statement {
  std::span<const Word> argv;  // argv[0] may name a defined function
  Redirections redirects;
};

struct TryStmt : Statement {
  // "for <words...>" -- joined and parsed as a duration at run time.
  std::span<const Word> time_words;
  // "<word> times" -- parsed as an integer at run time.
  std::optional<Word> attempts_word;
  Group body;
  std::optional<Group> catch_body;
};

struct ForStmt : Statement {
  enum class Mode : std::uint8_t { kAny, kAll };
  Mode mode = Mode::kAny;
  std::string_view variable;
  std::span<const Word> list;
  Group body;
};

struct IfStmt : Statement {
  const Expr* condition = nullptr;
  Group then_body;
  std::optional<Group> else_body;
};

struct WhileStmt : Statement {
  const Expr* condition = nullptr;
  Group body;
};

struct Script;

struct FunctionDef : Statement {
  std::string_view name;
  std::span<const std::string_view> parameters;
  Group body;
  // The Script whose arena holds this node; the function table keeps it
  // alive through an aliasing shared_ptr.
  const Script* script = nullptr;
};

struct AssignmentStmt : Statement {
  std::string_view name;
  // Either a plain word value or an arithmetic/boolean expression
  // (`x=5`, `x=${y}`, `n = ${n} .add. 1`).
  const Expr* value = nullptr;
};

// Bump allocator: hands out memory from blocks it owns and frees them all
// at once.  The first blocks are small enough for the heap's per-thread
// caches (glibc serves requests under 1,008 bytes from its tcache and small
// bins, away from the path that consolidates freed chunks); later blocks
// double.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    while (head_ != nullptr) {
      Block* block = head_;
      head_ = block->next;
      ::operator delete(block);
    }
  }

  // Uninitialised storage; `align` is a power of two up to max_align_t.
  void* allocate(std::size_t bytes, std::size_t align) {
    const std::uintptr_t at =
        (reinterpret_cast<std::uintptr_t>(cur_) + align - 1) & ~(align - 1);
    if (at + bytes > reinterpret_cast<std::uintptr_t>(end_)) {
      grow(bytes + align);
      return allocate(bytes, align);
    }
    cur_ = reinterpret_cast<char*>(at + bytes);
    return reinterpret_cast<void*>(at);
  }

 private:
  static constexpr std::size_t kSmallBlock = 1000;  // bytes, header included
  static constexpr int kSmallBlocks = 8;

  struct alignas(std::max_align_t) Block {
    Block* next;
  };

  void grow(std::size_t bytes) {
    const std::size_t size = std::max(next_block_, bytes + sizeof(Block));
    head_ = new (::operator new(size)) Block{head_};
    cur_ = reinterpret_cast<char*>(head_ + 1);
    end_ = reinterpret_cast<char*>(head_) + size;
    if (++blocks_ >= kSmallBlocks) next_block_ = 2 * size;
  }

  Block* head_ = nullptr;
  char* cur_ = nullptr;
  char* end_ = nullptr;
  std::size_t next_block_ = kSmallBlock;
  int blocks_ = 0;
};

struct Script : std::enable_shared_from_this<Script> {
  // The source copy, every node and every list.
  Arena arena;
  Group top;
};

}  // namespace ethergrid::shell
