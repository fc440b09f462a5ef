#include "common/status.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/result.h"

namespace thunderbolt {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, CodePredicates) {
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_FALSE(Status::OK().IsAborted());
}

TEST(StatusTest, EqualityByCode) {
  EXPECT_EQ(Status::Aborted("a"), Status::Aborted("b"));
  EXPECT_FALSE(Status::Aborted("a") == Status::Corruption("a"));
}

TEST(StatusTest, StreamOutput) {
  std::ostringstream os;
  os << Status::Internal("boom");
  EXPECT_EQ(os.str(), "Internal: boom");
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    THUNDERBOLT_RETURN_NOT_OK(Status::Corruption("bad"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsCorruption());

  auto passes = []() -> Status {
    THUNDERBOLT_RETURN_NOT_OK(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(passes().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("nope");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    THUNDERBOLT_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 20);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace thunderbolt
