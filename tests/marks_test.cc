#include "pointprocess/marks.h"

#include <cmath>
#include <memory>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace horizon::pp {
namespace {

// Property sweep: every mark distribution's empirical first and second
// moments must match its declared Mean() / SecondMoment().
struct MarkCase {
  const char* name;
  std::shared_ptr<const MarkDistribution> dist;
};

// Prints the case by name.  gtest's default printer would render the
// shared_ptr as its heap address, which moves from run to run and would
// make the discovered ctest names unstable.
void PrintTo(const MarkCase& c, std::ostream* os) { *os << c.name; }

class MarkMomentsTest : public ::testing::TestWithParam<MarkCase> {};

TEST_P(MarkMomentsTest, EmpiricalMomentsMatchDeclared) {
  const auto& dist = *GetParam().dist;
  Rng rng(123);
  const int n = 400000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = dist.Sample(rng);
    ASSERT_GE(z, 0.0);
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / n;
  const double m2 = sum_sq / n;
  EXPECT_NEAR(mean, dist.Mean(), 0.02 * dist.Mean() + 1e-3);
  EXPECT_NEAR(m2, dist.SecondMoment(), 0.1 * dist.SecondMoment() + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, MarkMomentsTest,
    ::testing::Values(
        MarkCase{"constant", std::make_shared<ConstantMark>(0.7)},
        MarkCase{"exponential", std::make_shared<ExponentialMark>(0.5)},
        MarkCase{"lognormal_low_sigma",
                 std::make_shared<LogNormalMark>(0.6, 0.8)},
        MarkCase{"lognormal_high_sigma",
                 std::make_shared<LogNormalMark>(0.3, 1.2)},
        MarkCase{"pareto", std::make_shared<ParetoMark>(0.5, 3.5)}));

TEST(ConstantMarkTest, AlwaysSameValue) {
  ConstantMark mark(0.42);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(mark.Sample(rng), 0.42);
  EXPECT_DOUBLE_EQ(mark.Variance(), 0.0);
}

TEST(LogNormalMarkTest, MeanParameterization) {
  // Mean must equal the requested mean regardless of sigma.
  for (double sigma : {0.1, 0.5, 1.0, 2.0}) {
    LogNormalMark mark(0.8, sigma);
    EXPECT_NEAR(mark.Mean(), 0.8, 1e-12) << "sigma=" << sigma;
  }
}

TEST(LogNormalMarkTest, SecondMomentFormula) {
  LogNormalMark mark(0.5, 0.7);
  // E[Z^2] = mean^2 exp(sigma^2).
  EXPECT_NEAR(mark.SecondMoment(), 0.25 * std::exp(0.49), 1e-12);
}

TEST(ParetoMarkTest, MeanParameterizationAndTail) {
  ParetoMark mark(0.6, 2.5);
  EXPECT_NEAR(mark.Mean(), 0.6, 1e-12);
  EXPECT_GT(mark.SecondMoment(), mark.Mean() * mark.Mean());
}

TEST(MarkDistributionTest, VarianceConsistency) {
  ExponentialMark mark(0.4);
  // Exponential: var = mean^2.
  EXPECT_NEAR(mark.Variance(), 0.16, 1e-12);
}

}  // namespace
}  // namespace horizon::pp
