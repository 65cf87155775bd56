// Golden AST test: the canonical s-expression of every script below,
// concatenated, must equal tests/shell/golden/ast.txt byte for byte.  The
// scripts are the four examples/scripts/*.ftsh, a copy of the benchmark's
// pipeline script, every script of parser_test.cpp (error cases print their
// status), and a few lexical corner cases.  A change of tree shape, line
// number, segment or error message anywhere in the front end shows up here.
//
// On a mismatch the actual output is written to ast_golden.actual.txt in
// the working directory; diff it against the golden file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "ast_printer.hpp"
#include "shell/parser.hpp"

namespace ethergrid::shell {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const std::string kRoot = ETHERGRID_SOURCE_DIR;

// The ftsh_pipeline benchmark's script.
constexpr const char* kPipelineScript = R"(try for 5 minutes
  forany mirror in ${mirrors}
    try for 30 seconds
      fetch ${mirror} input.dat -> size
    end
  end
end
forall part in 1 2 3 4
  try for 2 minutes or 3 times
    process ${part} ${size} -> out
  end
end
n = 0
while ${n} .lt. 3
  try 5 times
    publish ${client} ${n}
  end
  n = ${n} .add. 1
end
)";

// Every script of parser_test.cpp, in file order.
const char* const kParserTestScripts[] = {
    "\n\n# just a comment\n",
    "wget http://server/file.tar.gz",
    "wget http://${server}/file",
    "fetch-file $host filename",
    "echo \"a b\"c",
    "run-simulation ->& tmp < in > out",
    "cmd >> log",
    "cat -< tmp",
    "> out",
    "try for 30 minutes\n  a\nend",
    "try 5 times\n  a\nend",
    "try for 1 hour or 3 times\n  a\nend",
    "try for ${t} minutes or ${n} times\n  a\nend",
    "try 5 times\n  wget x\ncatch\n  rm -f x\n  failure\nend",
    "try\n  a\nend",
    "try 5 times\n  a\n",
    "try quickly\n  a\nend",
    "try for\n  a\nend",
    R"(
try for 30 minutes
  try for 5 minutes
    wget http://server/file.tar.gz
  end
  try for 1 minute or 3 times
    gunzip file.tar.gz
    tar xvf file.tar
  end
end
)",
    "forany server in xxx yyy zzz\n  wget ${server}\nend",
    "forall file in a b\n  wget ${file}\nend",
    "forany server xxx\n  a\nend",
    "forany server in\n  a\nend",
    "forany in a b\n  c\nend",
    "if ${n} .lt. 1000\n  failure\nelse\n  condor_submit job\nend",
    R"(
if ${x} .eq. 1
  a
else if ${x} .eq. 2
  b
else
  c
end
)",
    "while ${i} .lt. 10\n  i = ${i} .add. 1\nend",
    "if 1 .lt. 2 .and. 3 .lt. 4\n  a\nend",
    "x = 1 .add. 2 .mul. 3",
    "if .not. .exists. /tmp/file\n  a\nend",
    "if .lt. 3\n  a\nend",
    "x=5",
    "n = ${n} .add. 1",
    "dest=${base}.out",
    "make CFLAGS=-O2",
    "function get host file\n  wget ${host}/${file}\nend",
    "failure",
    "return",
    "failure now",
    "end",
    "catch",
    "else",
    R"(
# The Ethernet submitter from section 5.
try for 5 minutes
  cut -f2 /proc/sys/fs/file-nr -> n
  if ${n} .lt. 1000
    failure
  else
    condor_submit submit.job
  end
end
)",
    R"(
try for 900 seconds
  forany host in xxx yyy zzz
    try for 5 seconds
      wget http://$host/flag
    end
    try for 60 seconds
      wget http://$host/data
    end
  end
end
)",
};

// Lexical and grammatical corner cases beyond parser_test.cpp.
const char* const kCornerScripts[] = {
    "echo \"x\\\"y\\\\z\\$w\\n\\t\\q\" 'lit ${a} \\n' a\\ b \"${q}\"tail$",
    "echo ${m:-m1 m2} ${n:=5} ${o:-} pre${p}post $x$y ${#} file#1 # note",
    "a \\\n  b; c;;d\n\n  e",
    "cmd > \"out\"${x}.log 2 >> app -> v\ncmd2 >& both -< in\n- x\ncmd3 -",
    "\"end\" arg\n'try' 1 times",
    "x=\ny=a=b\n1x=3\nz=${a}b\nw = ${a}",
    "z=${a}b c",
    "if .not. .not. a .eq. b .and. .exists. f .or. c .ne. d\n  x\nend",
    "v = a .mul. .not. b .add. c .sub. d .div. e .mod. f",
    "v = 1 .le. 2 .ge. 3 .gt. 4",
    "if a\n  b\nelse\nif c\n  d\nend\nend",
    "if a\n  b\nelse if c\n  d\nelse if e\n  f\nend\nwhile g\n  h\nend",
    "function f\n  return\nend\nfunction g a\n  f\n  failure\nend",
    "try for ${t} or 2 times\n  a\ncatch\nend",
    "try 3 times\n  a\nend x",
    "forany x in a\n  catch\nend",
    "try 1 times\n  forall y in a b\n    if c\n      d\n",
    "if a b\n  x\nend",
    "v = a .add.",
    "f = .not.",
    "echo \"unterminated",
    "echo ${broken",
    "echo trailing\\",
    "try 1 times\n  a\nelse\nend",
    "function 1f\n  a\nend",
    "function f 2x\n  a\nend",
    "forany 9 in a\n  b\nend",
    "cmd >",
    "cmd -> ;",
    "try or 3 times\n  a\nend",
    "while\n  a\nend",
    "if x\n  a\nelse y\n  b\nend",
};

std::string render_all() {
  std::string out;
  auto add = [&out](const std::string& name, const std::string& source) {
    out += "=== " + name + "\n";
    out += testing::AstPrinter::print(parse_script(source));
  };
  for (const char* name :
       {"archive-unpack.ftsh", "local-test-first.ftsh", "mirror-fetch.ftsh",
        "probe-before-submit.ftsh"}) {
    const std::string path = kRoot + "/examples/scripts/" + name;
    const std::string source = read_file(path);
    EXPECT_FALSE(source.empty()) << "cannot read " << path;
    add(std::string("examples/scripts/") + name, source);
  }
  add("pipeline", kPipelineScript);
  int i = 0;
  for (const char* source : kParserTestScripts) {
    add("parser_test " + std::to_string(++i), source);
  }
  i = 0;
  for (const char* source : kCornerScripts) {
    add("corner " + std::to_string(++i), source);
  }
  return out;
}

TEST(GoldenAstTest, EveryScriptPrintsItsGoldenTree) {
  const std::string golden_path = kRoot + "/tests/shell/golden/ast.txt";
  const std::string expected = read_file(golden_path);
  const std::string actual = render_all();
  if (actual != expected) {
    std::ofstream("ast_golden.actual.txt", std::ios::binary) << actual;
  }
  ASSERT_FALSE(expected.empty()) << "cannot read " << golden_path;
  EXPECT_TRUE(actual == expected)
      << "AST output differs from " << golden_path
      << "; the actual output is in ast_golden.actual.txt";
}

}  // namespace
}  // namespace ethergrid::shell
