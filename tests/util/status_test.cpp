#include "util/status.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace ethergrid {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(s.failed());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCode) {
  EXPECT_EQ(Status::failure().code(), StatusCode::kFailure);
  EXPECT_EQ(Status::timeout().code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::killed().code(), StatusCode::kKilled);
  EXPECT_EQ(Status::not_found().code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::resource_exhausted().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::invalid_argument().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::io_error().code(), StatusCode::kIoError);
  EXPECT_EQ(Status::unavailable().code(), StatusCode::kUnavailable);
}

TEST(StatusTest, FailedStatusesAreNotOk) {
  for (Status s : {Status::failure(), Status::timeout(), Status::killed(),
                   Status::not_found(), Status::resource_exhausted()}) {
    EXPECT_TRUE(s.failed()) << s.to_string();
    EXPECT_FALSE(s.ok());
  }
}

TEST(StatusTest, MessageIsCarried) {
  Status s = Status::failure("disk full");
  EXPECT_EQ(s.message(), "disk full");
  EXPECT_EQ(s.to_string(), "FAILURE: disk full");
}

TEST(StatusTest, ToStringWithoutMessageIsJustCategory) {
  EXPECT_EQ(Status::timeout().to_string(), "TIMEOUT");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::failure("x"), Status::failure("x"));
  EXPECT_FALSE(Status::failure("x") == Status::failure("y"));
  EXPECT_FALSE(Status::failure("x") == Status::timeout("x"));
  EXPECT_EQ(Status::success(), Status());
}

// A literal message is held by pointer and a runtime one by copy; the two
// must be indistinguishable to every reader: equality, message(),
// to_string(), and copies that outlive the runtime source.
TEST(StatusTest, LiteralAndRuntimeMessagesCompareAndPrintTheSame) {
  std::string text = "schedd";
  text += " restarting";  // built at run time, past the inline capacity
  const Status literal = Status::unavailable("schedd restarting");
  const Status runtime = Status::unavailable(text);
  text.assign("overwritten");  // the runtime Status owns its copy
  EXPECT_EQ(literal, runtime);
  EXPECT_EQ(runtime, literal);
  EXPECT_EQ(literal.message(), runtime.message());
  EXPECT_EQ(literal.to_string(), "UNAVAILABLE: schedd restarting");
  EXPECT_EQ(runtime.to_string(), literal.to_string());
  EXPECT_FALSE(literal == Status::unavailable(std::string("schedd down")));
  EXPECT_FALSE(literal == Status::timeout(std::string("schedd restarting")));

  Status copy = runtime;
  Status moved = std::move(copy);
  EXPECT_EQ(moved, literal);
  moved = literal;
  EXPECT_EQ(moved.message(), "schedd restarting");
  EXPECT_EQ(Status::failure(""), Status::failure(std::string()));
  EXPECT_EQ(Status::failure(std::string()).to_string(), "FAILURE");
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_EQ(status_code_name(StatusCode::kTimeout), "TIMEOUT");
  EXPECT_EQ(status_code_name(StatusCode::kKilled), "KILLED");
  EXPECT_EQ(status_code_name(StatusCode::kResourceExhausted),
            "RESOURCE_EXHAUSTED");
}

}  // namespace
}  // namespace ethergrid
