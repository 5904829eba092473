#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/exponential_histogram.h"
#include "stream/sliding_window.h"

namespace horizon::stream {
namespace {

TEST(ExactSlidingWindowTest, CountsInWindowOnly) {
  ExactSlidingWindow w(10.0);
  w.Add(1.0);
  w.Add(5.0);
  w.Add(9.0);
  EXPECT_EQ(w.Count(9.0), 3u);
  EXPECT_EQ(w.Count(11.5), 2u);   // 1.0 expired (11.5 - 10 = 1.5 > 1.0)
  EXPECT_EQ(w.Count(20.0), 0u);
  EXPECT_EQ(w.TotalCount(), 3u);
}

TEST(ExponentialHistogramTest, ExactForSmallCounts) {
  ExponentialHistogram h(100.0, 0.1);
  for (int i = 0; i < 5; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.Count(4.0), 5u);
}

TEST(ExponentialHistogramTest, TotalCountIsExact) {
  ExponentialHistogram h(10.0, 0.2);
  for (int i = 0; i < 1000; ++i) h.Add(i * 0.01);
  EXPECT_EQ(h.TotalCount(), 1000u);
}

TEST(ExponentialHistogramTest, SpaceIsLogarithmic) {
  ExponentialHistogram h(1e9, 0.1);
  for (int i = 0; i < 100000; ++i) h.Add(static_cast<double>(i));
  // With k ~ 11 buckets per size and ~log2(1e5) sizes, bucket count must be
  // far below the event count.
  EXPECT_LT(h.NumBuckets(), 250u);
}

struct EhCase {
  double epsilon;
  double window;
  int num_events;
  uint64_t seed;
};

class ExponentialHistogramErrorTest : public ::testing::TestWithParam<EhCase> {};

TEST_P(ExponentialHistogramErrorTest, RelativeErrorBounded) {
  const EhCase c = GetParam();
  ExponentialHistogram approx(c.window, c.epsilon);
  ExactSlidingWindow exact(c.window);
  Rng rng(c.seed);
  double t = 0.0;
  for (int i = 0; i < c.num_events; ++i) {
    // Bursty arrivals: mixture of dense and sparse gaps.
    t += rng.Bernoulli(0.7) ? rng.Exponential(2.0) : rng.Exponential(0.05);
    approx.Add(t);
    exact.Add(t);
    if (i % 7 == 0) {
      const double now = t + rng.Uniform() * 0.1;
      const double truth = static_cast<double>(exact.Count(now));
      const double est = static_cast<double>(approx.Count(now));
      if (truth > 0) {
        EXPECT_LE(std::fabs(est - truth) / truth, c.epsilon + 1e-9)
            << "at t=" << now << " truth=" << truth << " est=" << est;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExponentialHistogramErrorTest,
    ::testing::Values(EhCase{0.5, 50.0, 5000, 1}, EhCase{0.2, 50.0, 5000, 2},
                      EhCase{0.1, 20.0, 8000, 3}, EhCase{0.05, 100.0, 8000, 4},
                      EhCase{0.01, 10.0, 4000, 5}));

TEST(ExponentialHistogramTest, QueryAfterLongSilenceIsZero) {
  ExponentialHistogram h(5.0, 0.1);
  for (int i = 0; i < 100; ++i) h.Add(static_cast<double>(i) * 0.01);
  EXPECT_EQ(h.Count(100.0), 0u);
}

}  // namespace
}  // namespace horizon::stream
