#include "shell/environment.hpp"

namespace ethergrid::shell {

Environment::Environment() : parent_(nullptr), root_(this) {}

Environment::Environment(Environment* parent)
    : parent_(parent), root_(parent->root_) {}

std::uint32_t Environment::find_name(std::string_view name) const {
  const auto& ids = root_->name_ids_;
  auto it = ids.find(name);
  return it == ids.end() ? 0 : it->second;
}

std::uint32_t Environment::intern_name(std::string_view name) {
  auto it = root_->name_ids_.find(name);
  if (it != root_->name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(root_->name_ids_.size() + 1);
  root_->name_ids_.emplace(name, id);
  return id;
}

Environment::Var* Environment::find_var(std::uint32_t id) {
  for (Var& var : vars_) {
    if (var.name == id) return &var;
  }
  return nullptr;
}

std::optional<std::string> Environment::get(std::string_view name) const {
  const std::uint32_t id = find_name(name);
  if (id == 0) return std::nullopt;  // never interned => defined nowhere
  for (const Environment* env = this; env; env = env->parent_) {
    for (const Var& var : env->vars_) {
      if (var.name == id) return var.value;
    }
  }
  return std::nullopt;
}

void Environment::assign(std::string_view name, std::string value) {
  const std::uint32_t id = intern_name(name);
  for (Environment* env = this; env; env = env->parent_) {
    if (Var* var = env->find_var(id)) {
      // assign() re-targets loop counters every iteration; moving into the
      // existing slot keeps its heap capacity when `value` fits in SSO.
      var->value = std::move(value);
      return;
    }
  }
  vars_.push_back(Var{id, std::move(value)});
}

void Environment::define(std::string_view name, std::string value) {
  const std::uint32_t id = intern_name(name);
  if (Var* var = find_var(id)) {
    var->value = std::move(value);
    return;
  }
  vars_.push_back(Var{id, std::move(value)});
}

bool Environment::defined(std::string_view name) const {
  return get(name).has_value();
}

void Environment::define_function(std::shared_ptr<const FunctionDef> def) {
  std::string name(def->name);
  root_->functions_.insert_or_assign(std::move(name), std::move(def));
}

std::shared_ptr<const FunctionDef> Environment::find_function(
    std::string_view name) const {
  auto it = root_->functions_.find(name);
  return it == root_->functions_.end() ? nullptr : it->second;
}

}  // namespace ethergrid::shell
