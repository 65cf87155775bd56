// Variable scopes and the function table.
//
// Scoping is a parent chain: lookups walk outward; plain assignment updates
// the scope where the name is already defined (or defines it in the current
// scope); `define` always creates/overwrites locally (loop variables,
// function parameters).  Functions are global (stored at the root).
//
// Names are interned once into a root-owned table, and each scope is a flat
// vector of (name-id, value) slots.  Scripts use a handful of variables per
// scope, so a linear scan over ids beats a std::map node walk -- and the
// re-assignment path (loop counters) never touches the allocator: the id
// compare is an integer test and the value write reuses the slot's string
// capacity.
//
// No lock: forall branches are kernel processes under both executors, so
// every scope of a script is touched by the one thread running it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "shell/ast.hpp"

namespace ethergrid::shell {

class Environment {
 public:
  // Root scope.
  Environment();
  // Child scope (function call frame, forall branch).
  explicit Environment(Environment* parent);

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // Innermost-out lookup.
  std::optional<std::string> get(std::string_view name) const;

  // Updates where defined; defines here if nowhere.
  void assign(std::string_view name, std::string value);

  // Defines/overwrites in this scope only.
  void define(std::string_view name, std::string value);

  bool defined(std::string_view name) const;

  // Function table (root-global).  A parsed definition's pointer shares
  // ownership of its Script (an aliasing shared_ptr), so the body stays
  // valid after the script's ParseResult is dropped.
  void define_function(std::shared_ptr<const FunctionDef> def);
  // Returns nullptr if unknown.
  std::shared_ptr<const FunctionDef> find_function(std::string_view name) const;

 private:
  struct Var {
    std::uint32_t name;
    std::string value;
  };

  // Id for `name` if it was ever interned, 0 otherwise.
  std::uint32_t find_name(std::string_view name) const;
  // Id for `name`, interning it on first use.
  std::uint32_t intern_name(std::string_view name);
  Var* find_var(std::uint32_t id);

  Environment* parent_;
  Environment* root_;
  std::vector<Var> vars_;
  // Root-only state (accessed through root_):
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;  // id = order
  std::map<std::string, std::shared_ptr<const FunctionDef>, std::less<>>
      functions_;
};

}  // namespace ethergrid::shell
