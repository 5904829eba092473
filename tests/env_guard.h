// Test hermeticity helpers for environment variables the library reads.
//
// The library consults one: HORIZON_THREADS (thread-pool width, read
// once at global-pool construction).  A value leaking in from the
// invoking shell would silently change what a test exercises.  Tests that
// care register a guard so the variable is UNSET for the whole test
// program and restored afterwards, keeping runs hermetic no matter the
// caller's environment.  (Deliberate per-process settings still work:
// ctest's ENVIRONMENT property, as used by the checkpoint_test_threadsN
// variants, applies to the child process before main runs, and those
// tests do not register a guard for that variable.)
#ifndef HORIZON_TESTS_ENV_GUARD_H_
#define HORIZON_TESTS_ENV_GUARD_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace horizon::test {

/// gtest Environment that unsets one variable for the whole test program
/// (SetUp) and restores the caller's value at exit (TearDown).
class EnvVarGuard : public ::testing::Environment {
 public:
  explicit EnvVarGuard(std::string name) : name_(std::move(name)) {}

  void SetUp() override {
    if (const char* value = std::getenv(name_.c_str())) saved_ = value;
    ::unsetenv(name_.c_str());
  }

  void TearDown() override {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), /*overwrite=*/1);
    }
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace horizon::test

#endif  // HORIZON_TESTS_ENV_GUARD_H_
