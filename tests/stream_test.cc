#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/text_codec.h"
#include "common/units.h"
#include "reference_dgim.h"
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

/// Event times with ties, bursts and long gaps: mostly about a minute
/// apart, sometimes the same time again, sometimes a burst of 100-2000
/// events ~20 ms apart, and now and then a silence of hours or of 31-60
/// days, longer than every window.
std::vector<double> TiesBurstsAndGaps(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> times;
  times.reserve(n);
  double t = 1000.0;
  size_t burst = 0;
  while (times.size() < n) {
    const double u = rng.Uniform();
    if (burst > 0) {
      --burst;
      t += rng.Exponential(50.0);
    } else if (u < 0.1) {
      // a tie: the same time again
    } else if (u < 0.11) {
      burst = 100 + rng.UniformInt(1900);
    } else if (u < 0.1105) {
      t += rng.Uniform(31.0, 60.0) * kDay;
    } else if (u < 0.12) {
      t += rng.Uniform(1.0, 12.0) * kHour;
    } else {
      t += rng.Exponential(1.0 / 60.0);
    }
    times.push_back(t);
  }
  return times;
}

class DgimOracleTest : public ::testing::TestWithParam<double> {};

// dgim::Add against the scan-based Add it replaced (reference_dgim.h):
// after every event, every window holds the same buckets, bit for bit.
// Every ~1000 events each window's buckets also survive a Write/Read
// round trip, so Read admits everything Add produces.
TEST_P(DgimOracleTest, AddMatchesScanningReferenceAfterEveryEvent) {
  const double epsilon = GetParam();
  const size_t k = dgim::MaxPerSize(epsilon);
  const std::vector<double> windows = {1.0, 60.0, kHour, kDay, 30 * kDay};
  struct Window {
    dgim::Buckets got;
    std::vector<reference::Bucket> want;
    size_t n_got = 0, n_want = 0;
  };
  // 64 sizes of at most k buckets each, plus the room Add appends into.
  std::vector<Window> state(windows.size());
  for (Window& w : state) {
    w.got.newest.resize(64 * k + 1);
    w.got.log2_size.resize(64 * k + 1);
    w.want.resize(64 * k + 1);
  }
  const std::vector<double> times = TiesBurstsAndGaps(
      0xD61A0000u + static_cast<uint64_t>(1.0 / epsilon), 100000);
  for (size_t e = 0; e < times.size(); ++e) {
    const double t = times[e];
    for (size_t i = 0; i < windows.size(); ++i) {
      Window& w = state[i];
      w.n_got = dgim::Add(w.got.newest.data(), w.got.log2_size.data(), w.n_got, t,
                          windows[i], k);
      w.n_want = reference::DgimAdd(w.want.data(), w.n_want, t, windows[i], k);
      ASSERT_EQ(w.n_got, w.n_want) << "event " << e << ", window " << windows[i];
      const dgim::BucketSpan got{w.got.newest.data(), w.got.log2_size.data(), w.n_got};
      for (size_t b = 0; b < w.n_got; ++b) {
        if (got.newest[b] != w.want[b].newest || got.SizeOf(b) != w.want[b].size) {
          ASSERT_EQ(got.newest[b], w.want[b].newest)
              << "event " << e << ", window " << windows[i] << ", bucket " << b;
          ASSERT_EQ(got.SizeOf(b), w.want[b].size)
              << "event " << e << ", window " << windows[i] << ", bucket " << b;
        }
      }
      if (e % 997 == 0) {
        std::string blob;
        dgim::Write(&blob, got);
        text::Reader in(blob);
        dgim::Buckets read;
        ASSERT_TRUE(dgim::Read(&in, k, e + 1, t, &read))
            << "event " << e << ", window " << windows[i];
        ASSERT_EQ(read.size(), w.n_got);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, DgimOracleTest,
                         ::testing::Values(1.0, 0.5, 0.1, 0.05, 0.01));

// Bucket sequences Add never produces, each well formed otherwise (sorted
// times at or before the stream's last event, sizes summing to at most
// its total).  An epsilon of 0.5 keeps at most 3 buckets per size.
TEST(ExponentialHistogramTest, DeserializeRejectsBucketsAddCannotProduce) {
  const auto reads = [](uint64_t total, const std::string& blob) {
    text::Reader in(blob);
    dgim::Buckets buckets;
    return dgim::Read(&in, dgim::MaxPerSize(0.5), total, /*last_t=*/3.0, &buckets);
  };
  EXPECT_TRUE(reads(4, "3\n1 2\n2 1\n3 1\n"));
  EXPECT_TRUE(reads(3, "3\n1 1\n2 1\n3 1\n"));
  EXPECT_FALSE(reads(4, "2\n1 3\n3 1\n")) << "a size-3 bucket";
  EXPECT_FALSE(reads(4, "3\n1 1\n2 1\n3 2\n")) << "sizes grow toward newer";
  EXPECT_FALSE(reads(4, "4\n0 1\n1 1\n2 1\n3 1\n")) << "4 buckets of size 1";
  EXPECT_FALSE(reads(8, "3\n1 2\n2 4\n3 2\n")) << "a larger size between smaller";
}

// The stream's total and last event age bound the buckets: times past
// the last event, and sizes summing past the total, are rejected; a read
// that fails leaves the output as it was.
TEST(ExponentialHistogramTest, DeserializeRejectsBucketsPastTheStreamsTotalOrLastEvent) {
  const auto reads = [](uint64_t total, double last_t, const std::string& blob) {
    text::Reader in(blob);
    dgim::Buckets buckets;
    buckets.newest = {7.0};
    buckets.log2_size = {0};
    const bool ok = dgim::Read(&in, dgim::MaxPerSize(0.5), total, last_t, &buckets);
    if (!ok) {
      EXPECT_EQ(buckets.newest, std::vector<double>{7.0}) << blob;
    }
    return ok;
  };
  EXPECT_TRUE(reads(3, 30.0, "3\n10 1\n20 1\n30 1\n"));
  EXPECT_FALSE(reads(3, 29.0, "3\n10 1\n20 1\n30 1\n")) << "past the last event";
  EXPECT_FALSE(reads(2, 30.0, "3\n10 1\n20 1\n30 1\n")) << "sizes sum past the total";
  EXPECT_FALSE(reads(0, 30.0, "1\n10 1\n")) << "a bucket of an empty stream";
  EXPECT_FALSE(reads(3, 30.0, "3\n20 1\n10 1\n30 1\n")) << "times decrease";
  EXPECT_FALSE(reads(3, 30.0, "3\n10 1\nnan 1\n30 1\n")) << "a NaN time";
  EXPECT_TRUE(reads(0, 30.0, "0\n"));
  // 64 * (ceil(1 / 0.5) + 2) = 256 buckets is the cap for epsilon 0.5.
  EXPECT_FALSE(reads(1u << 20, 30.0, "257\n")) << "more buckets than a window holds";
}

}  // namespace
}  // namespace horizon::stream
