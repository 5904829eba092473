// Micro-benchmark (google-benchmark): the stream substrate.  DGIM
// exponential-histogram Add/Count vs the exact sliding window, plus the
// memory footprint that makes O(1)-state tracking feasible per item.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "datagen/generator.h"
#include "stream/cascade_tracker.h"
#include "stream/exponential_histogram.h"
#include "stream/sliding_window.h"

namespace {

using namespace horizon;
using namespace horizon::stream;

void BM_ExponentialHistogramAdd(benchmark::State& state) {
  const double epsilon = 1.0 / static_cast<double>(state.range(0));
  ExponentialHistogram hist(3600.0, epsilon);
  double t = 0.0;
  Rng rng(1);
  for (auto _ : state) {
    t += rng.Exponential(1.0);
    hist.Add(t);
  }
  state.counters["buckets"] = static_cast<double>(hist.NumBuckets());
}
BENCHMARK(BM_ExponentialHistogramAdd)->Arg(2)->Arg(10)->Arg(100);

void BM_ExactSlidingWindowAdd(benchmark::State& state) {
  ExactSlidingWindow window(3600.0);
  double t = 0.0;
  Rng rng(1);
  for (auto _ : state) {
    t += rng.Exponential(1.0);
    window.Add(t);
    if ((window.TotalCount() & 1023) == 0) {
      benchmark::DoNotOptimize(window.Count(t));
    }
  }
  state.counters["mem_events"] = static_cast<double>(window.MemoryEvents());
}
BENCHMARK(BM_ExactSlidingWindowAdd);

void BM_ExponentialHistogramCount(benchmark::State& state) {
  ExponentialHistogram hist(3600.0, 0.1);
  double t = 0.0;
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) {
    t += rng.Exponential(2.0);
    hist.Add(t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Count(t));
  }
}
BENCHMARK(BM_ExponentialHistogramCount);

// A heavy item's views: its windows hold hundreds of buckets each.
// `bytes` is the tracker's MemoryBytes() at the end.
void BM_CascadeTrackerObserve(benchmark::State& state) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(3);
  for (auto _ : state) {
    t += rng.Exponential(0.5);
    tracker.Observe(EngagementType::kView, t);
  }
  state.counters["bytes"] = static_cast<double>(tracker.MemoryBytes());
}
BENCHMARK(BM_CascadeTrackerObserve);

// The same views plus the shares, comments and reactions the datagen
// derives from them, at its per-view base rates (datagen::GeneratorConfig),
// so all four streams' blocks grow.  Time is per view.
void BM_CascadeTrackerObserveAllStreams(benchmark::State& state) {
  const datagen::GeneratorConfig rates;
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(5);
  for (auto _ : state) {
    t += rng.Exponential(0.5);
    tracker.Observe(EngagementType::kView, t);
    if (rng.Bernoulli(rates.base_share_prob)) tracker.Observe(EngagementType::kShare, t);
    if (rng.Bernoulli(rates.base_comment_prob)) {
      tracker.Observe(EngagementType::kComment, t);
    }
    if (rng.Bernoulli(rates.base_reaction_prob)) {
      tracker.Observe(EngagementType::kReaction, t);
    }
  }
  state.counters["bytes"] = static_cast<double>(tracker.MemoryBytes());
}
BENCHMARK(BM_CascadeTrackerObserveAllStreams);

void BM_CascadeTrackerSnapshot(benchmark::State& state) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  double t = 0.0;
  Rng rng(4);
  for (int i = 0; i < state.range(0); ++i) {
    t += rng.Exponential(0.5);
    tracker.Observe(EngagementType::kView, t);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Snapshot(t));
  }
  // The point of the data structure: snapshot cost must be flat in the
  // number of observed events (compare across /1000 /100000).
}
BENCHMARK(BM_CascadeTrackerSnapshot)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
