#include "shell/environment.hpp"

#include <gtest/gtest.h>

namespace ethergrid::shell {
namespace {

TEST(EnvironmentTest, GetUnsetReturnsNullopt) {
  Environment env;
  EXPECT_FALSE(env.get("x").has_value());
  EXPECT_FALSE(env.defined("x"));
}

TEST(EnvironmentTest, AssignAndGet) {
  Environment env;
  env.assign("x", "5");
  EXPECT_EQ(env.get("x"), "5");
  env.assign("x", "6");
  EXPECT_EQ(env.get("x"), "6");
}

TEST(EnvironmentTest, ChildSeesParentVariables) {
  Environment root;
  root.assign("x", "1");
  Environment child(&root);
  EXPECT_EQ(child.get("x"), "1");
}

TEST(EnvironmentTest, AssignUpdatesDefiningScope) {
  Environment root;
  root.assign("x", "1");
  Environment child(&root);
  child.assign("x", "2");  // updates the root's x
  EXPECT_EQ(root.get("x"), "2");
}

TEST(EnvironmentTest, AssignUndefinedDefinesLocally) {
  Environment root;
  Environment child(&root);
  child.assign("y", "local");
  EXPECT_EQ(child.get("y"), "local");
  EXPECT_FALSE(root.get("y").has_value());
}

TEST(EnvironmentTest, DefineShadowsParent) {
  Environment root;
  root.assign("x", "outer");
  Environment child(&root);
  child.define("x", "inner");
  EXPECT_EQ(child.get("x"), "inner");
  EXPECT_EQ(root.get("x"), "outer");
  // assign in child now updates the child's shadow, not the root.
  child.assign("x", "inner2");
  EXPECT_EQ(root.get("x"), "outer");
}

TEST(EnvironmentTest, FunctionsAreGlobal) {
  Environment root;
  Environment child(&root);
  FunctionDef def;
  def.name = "f";
  child.define_function(std::make_shared<FunctionDef>(def));
  EXPECT_NE(root.find_function("f"), nullptr);
  EXPECT_NE(child.find_function("f"), nullptr);
  EXPECT_EQ(root.find_function("g"), nullptr);
}

TEST(EnvironmentTest, FunctionRedefinitionReplaces) {
  Environment root;
  static constexpr std::string_view kParameters[] = {"a", "b"};
  FunctionDef def;
  def.name = "f";
  def.parameters = std::span(kParameters).first(1);
  root.define_function(std::make_shared<FunctionDef>(def));
  def.parameters = kParameters;
  root.define_function(std::make_shared<FunctionDef>(def));
  EXPECT_EQ(root.find_function("f")->parameters.size(), 2u);
}

}  // namespace
}  // namespace ethergrid::shell
