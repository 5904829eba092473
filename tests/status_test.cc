// Tests for common/status.h: code taxonomy, ToString formatting,
// StatusOr value semantics, and HORIZON_RETURN_IF_ERROR propagation.
#include "common/status.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace horizon {
namespace {

TEST(StatusTest, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_TRUE(s.message().empty());
  EXPECT_EQ(s.ToString(), "ok");
  EXPECT_EQ(s, Status::Ok());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    std::string_view name;
  };
  const std::vector<Case> cases = {
      {Status::NotFound("a"), StatusCode::kNotFound, "not_found"},
      {Status::NotYetLive("b"), StatusCode::kNotYetLive, "not_yet_live"},
      {Status::InvalidArgument("c"), StatusCode::kInvalidArgument,
       "invalid_argument"},
      {Status::IoError("d"), StatusCode::kIoError, "io_error"},
      {Status::Corruption("e"), StatusCode::kCorruption, "corruption"},
      {Status::ConfigMismatch("f"), StatusCode::kConfigMismatch,
       "config_mismatch"},
      {Status::AlreadyExists("g"), StatusCode::kAlreadyExists,
       "already_exists"},
      {Status::Internal("h"), StatusCode::kInternal, "internal"},
      {Status::ResourceExhausted("i"), StatusCode::kResourceExhausted,
       "resource_exhausted"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(StatusCodeName(c.code), c.name);
    EXPECT_EQ(c.status.ToString(),
              std::string(c.name) + ": " + c.status.message());
  }
}

TEST(StatusTest, CodeValuesAreStable) {
  // The numeric values are exported as metric labels; renumbering them
  // silently breaks dashboards.
  EXPECT_EQ(static_cast<int>(StatusCode::kOk), 0);
  EXPECT_EQ(static_cast<int>(StatusCode::kNotFound), 1);
  EXPECT_EQ(static_cast<int>(StatusCode::kNotYetLive), 2);
  EXPECT_EQ(static_cast<int>(StatusCode::kInvalidArgument), 3);
  EXPECT_EQ(static_cast<int>(StatusCode::kIoError), 4);
  EXPECT_EQ(static_cast<int>(StatusCode::kCorruption), 5);
  EXPECT_EQ(static_cast<int>(StatusCode::kConfigMismatch), 6);
  EXPECT_EQ(static_cast<int>(StatusCode::kAlreadyExists), 7);
  EXPECT_EQ(static_cast<int>(StatusCode::kInternal), 8);
  EXPECT_EQ(static_cast<int>(StatusCode::kResourceExhausted), 9);
}

// Arrays indexed by StatusCode are kNumStatusCodes long.  Every code below
// it has a name, and kNumStatusCodes itself is not a code: a new code gets
// a case in StatusCodeName (-Werror=switch-enum), so this fails until the
// count moves with it.
TEST(StatusTest, CodeNamesCoverExactlyTheCodes) {
  for (int c = 0; c < kNumStatusCodes; ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "unknown") << c;
  }
  EXPECT_EQ(StatusCodeName(static_cast<StatusCode>(kNumStatusCodes)),
            "unknown");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::IoError("x"));
}

Status FailsAtStep(int failing_step, int step) {
  if (step == failing_step) return Status::Corruption("step failed");
  return Status::Ok();
}

Status RunThreeSteps(int failing_step) {
  HORIZON_RETURN_IF_ERROR(FailsAtStep(failing_step, 0));
  HORIZON_RETURN_IF_ERROR(FailsAtStep(failing_step, 1));
  HORIZON_RETURN_IF_ERROR(FailsAtStep(failing_step, 2));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagatesFirstFailure) {
  EXPECT_TRUE(RunThreeSteps(-1).ok());
  for (int step = 0; step < 3; ++step) {
    const Status s = RunThreeSteps(step);
    EXPECT_EQ(s.code(), StatusCode::kCorruption);
    EXPECT_EQ(s.message(), "step failed");
  }
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, CarriesValueOrStatus) {
  const StatusOr<int> good = ParsePositive(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  EXPECT_EQ(good.code(), StatusCode::kOk);

  const StatusOr<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "not positive");
}

TEST(StatusOrTest, DereferenceReadsValue) {
  const StatusOr<std::string> good = std::string("payload");
  EXPECT_EQ(*good, "payload");
  EXPECT_EQ(good->size(), 7u);
}

TEST(StatusOrTest, MoveOutOfValue) {
  StatusOr<std::vector<int>> big = std::vector<int>{1, 2, 3};
  const std::vector<int> moved = *std::move(big);
  EXPECT_EQ(moved.size(), 3u);
}

TEST(StatusOrTest, WorksWithMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> p = std::make_unique<int>(5);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(**p, 5);
  const std::unique_ptr<int> owned = std::move(p).value();
  EXPECT_EQ(*owned, 5);
}

}  // namespace
}  // namespace horizon
