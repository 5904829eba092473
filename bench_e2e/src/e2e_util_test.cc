#include "e2e_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace horizon::bench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 0.50), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99.0);
  EXPECT_EQ(Percentile(OneTo(100), 1.0), 100.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Median(OneTo(5)), 3.0);
}

TEST(TailPercentileTest, LeavesExactlyTenSamplesBeyond) {
  const TailStat tail = TailPercentile(OneTo(100));
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.samples, 100u);
  const std::vector<double> all = OneTo(100);
  int beyond = 0;
  for (double v : all) beyond += v > tail.value ? 1 : 0;
  EXPECT_EQ(beyond, 10);

  const TailStat big = TailPercentile(OneTo(1000));
  EXPECT_EQ(big.value, 990.0);
  EXPECT_DOUBLE_EQ(big.percentile, 99.0);
}

TEST(TailPercentileTest, SmallSamplesFallBackToTheMedian) {
  const TailStat nineteen = TailPercentile(OneTo(19));
  EXPECT_EQ(nineteen.value, 10.0);
  EXPECT_DOUBLE_EQ(nineteen.percentile, 50.0);
  // From 20 samples on, the rule applies: rank n - 11 is the 10th value.
  const TailStat twenty = TailPercentile(OneTo(20));
  EXPECT_EQ(twenty.value, 10.0);
  EXPECT_DOUBLE_EQ(twenty.percentile, 50.0);
  const TailStat forty = TailPercentile(OneTo(40));
  EXPECT_EQ(forty.value, 30.0);
  EXPECT_DOUBLE_EQ(forty.percentile, 75.0);
}

TEST(WindowTest, OneSpoiledWindowDoesNotMoveTheMedian) {
  std::vector<std::vector<double>> windows(5, OneTo(100));
  for (double& v : windows[2]) v *= 10.0;  // a burst of outside load
  EXPECT_EQ(MedianOfWindowPercentiles(windows, 0.99, 50), 99.0);
  EXPECT_EQ(MedianOfWindowPercentiles(windows, 0.50, 50), 50.0);
  // Pooled, the spoiled window would own the tail.
  std::vector<double> pooled;
  for (const auto& w : windows) pooled.insert(pooled.end(), w.begin(), w.end());
  EXPECT_GT(Percentile(pooled, 0.99), 99.0);
}

TEST(WindowTest, SparseWindowsFallBackToThePooledPercentile) {
  const std::vector<std::vector<double>> windows = {{1, 2}, {3}, {4, 5}};
  EXPECT_EQ(MedianOfWindowPercentiles(windows, 0.5, 10), 3.0);
  // Only windows with enough samples vote.
  const std::vector<std::vector<double>> mixed = {OneTo(20), {1000}, OneTo(20)};
  EXPECT_EQ(MedianOfWindowPercentiles(mixed, 0.5, 10), 10.0);
}

TEST(WindowTest, LowestWindowIgnoresSlowedWindows) {
  const std::vector<std::vector<double>> windows = {
      {30, 31, 32}, {10, 11, 12}, {50, 51, 52}, {1}};
  EXPECT_EQ(LowestWindowPercentile(windows, 0.5, 3), 11.0);
  // No window is full enough: the pooled percentile stands in.
  EXPECT_EQ(LowestWindowPercentile(windows, 0.5, 4), 30.0);
}

TEST(WindowTest, MergeAddsWindowByWindow) {
  std::vector<Window> a(1), b(2);
  a[0].single_ns = {1};
  a[0].requests = 1;
  a[0].seconds = 1.0;
  b[0].single_ns = {2};
  b[0].single_cpu_ns = {1.5};
  b[0].requests = 2;
  b[0].seconds = 1.0;
  b[1].batch_ns = {3};
  b[1].requests = 1;
  b[1].seconds = 0.5;
  MergeWindows(&a, b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].single_ns.size(), 2u);
  EXPECT_EQ(a[0].single_cpu_ns, std::vector<double>{1.5});
  EXPECT_EQ(a[0].requests, 3u);
  EXPECT_EQ(a[1].batch_ns.size(), 1u);
  EXPECT_DOUBLE_EQ(a[1].seconds, 0.5);
}

TEST(ZipfSamplerTest, RanksFollowInverseRankWeights) {
  const ZipfSampler zipf(1000, 1.0);
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<int> counts(1000, 0);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) {
    const size_t rank = zipf.Sample(u(rng));
    ASSERT_LT(rank, 1000u);
    ++counts[rank];
  }
  // P(k) ~ 1/(k+1): rank 0 twice as likely as rank 1, four times rank 3.
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[3], 4.0, 0.25);
  // H(1000) ~ 7.485, so rank 0 carries ~13.4% of the mass.
  EXPECT_NEAR(static_cast<double>(counts[0]) / draws, 1.0 / 7.485, 0.005);
}

TEST(ZipfSamplerTest, EdgesOfTheUnitInterval) {
  const ZipfSampler zipf(10, 1.0);
  EXPECT_EQ(zipf.Sample(0.0), 0u);
  EXPECT_EQ(zipf.Sample(0.9999999999), 9u);
  const ZipfSampler uniform(4, 0.0);  // s = 0 is uniform
  EXPECT_EQ(uniform.Sample(0.24), 0u);
  EXPECT_EQ(uniform.Sample(0.26), 1u);
  EXPECT_EQ(uniform.Sample(0.76), 3u);
}

TEST(OpenLoopScheduleTest, StallIsChargedToRequestsQueuedBehindIt) {
  OpenLoopSchedule schedule(1000.0);  // one request per ms
  const int64_t ms = 1000000;
  EXPECT_EQ(schedule.DueNs(0), 0);
  EXPECT_EQ(schedule.DueNs(3), 3 * ms);
  // Request 0 stalls for 5 ms; requests 1..3 are sent when it returns.
  EXPECT_EQ(schedule.Record(0, 0, 5 * ms), 5 * ms);
  EXPECT_EQ(schedule.Record(1, 5 * ms, 5 * ms + ms / 10), 4 * ms + ms / 10);
  EXPECT_EQ(schedule.Record(2, 5 * ms + ms / 10, 5 * ms + ms / 5), 3 * ms + ms / 5);
  // Request 6 is sent on time.
  EXPECT_EQ(schedule.Record(6, 6 * ms, 6 * ms + ms / 10), ms / 10);
  const std::vector<double> late = schedule.lateness_ns();
  ASSERT_EQ(late.size(), 4u);
  EXPECT_EQ(late[0], 0.0);
  EXPECT_EQ(late[1], 4.0 * ms);
  EXPECT_EQ(late[2], 3.0 * ms + ms / 10);
  EXPECT_EQ(late[3], 0.0);
}

TEST(OpenLoopScheduleTest, EarlySendIsNotNegativeLateness) {
  OpenLoopSchedule schedule(10.0);
  EXPECT_EQ(schedule.Record(1, 50000000, 120000000), 20000000);
  EXPECT_EQ(schedule.lateness_ns()[0], 0.0);
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly) {
  SpanRecorder r;
  const int32_t root = r.Add("serving.query", 0, 100, -1, 7);
  const int32_t a = r.Add("core.predict", 10, 40, root, 7);
  r.Add("gbdt.count_forest", 15, 25, a, 7);
  r.Add("stream.snapshot", 50, 60, root, 7);
  const std::vector<int64_t> self = SelfTimesNs(r.spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 60);  // 100 - 30 - 10: the grandchild is not subtracted
  EXPECT_EQ(self[1], 20);  // 30 - 10
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
  // Self times plus the children's durations account for the root.
  EXPECT_EQ(self[0] + r.spans()[1].duration_ns() + r.spans()[3].duration_ns(), 100);
}

TEST(SpanTest, ReplayedChildrenOutsideTheParentStillSubtract) {
  // A replay timed right after the service call is a child by reference.
  SpanRecorder r;
  const int32_t root = r.Add("serving.query", 0, 50, -1, 1);
  r.Add("features.extract", 60, 80, root, 1);
  EXPECT_EQ(SelfTimesNs(r.spans())[0], 30);
}

TEST(SpanTest, AppendRebasesParentsAndMeansUseSelfTime) {
  SpanRecorder first, second;
  first.Add("serving.ingest", 0, 10, -1, 1);
  const int32_t p = second.Add("serving.ingest", 0, 30, -1, 2);
  second.Add("stream.observe", 30, 40, p, 2);
  std::vector<Span> all;
  AppendSpans(&all, first.spans());
  AppendSpans(&all, second.spans());
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].parent, 1);
  const std::vector<int64_t> self = SelfTimesNs(all);
  EXPECT_DOUBLE_EQ(MeanNs(all, "serving.ingest"), 20.0);
  EXPECT_DOUBLE_EQ(MeanNs(all, "serving.ingest", &self), 15.0);  // (10 + 20) / 2
  EXPECT_DOUBLE_EQ(MeanNs(all, "stream.observe"), 10.0);
  EXPECT_EQ(CountSpans(all, "serving.ingest"), 2u);
  EXPECT_DOUBLE_EQ(MeanNs(all, "missing"), 0.0);
}

}  // namespace
}  // namespace horizon::bench
