// Micro-benchmark (google-benchmark): the stream substrate.  DGIM
// exponential-histogram Add/Count vs the exact sliding window, plus the
// memory footprint that makes O(1)-state tracking feasible per item.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "datagen/event_stream.h"
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

/// A corpus with bench_e2e's settings (mean cascade 6, one page per ten
/// posts) and its time-ordered event stream.
struct ReplayCorpus {
  std::vector<double> creation;     // by post id
  std::vector<int32_t> by_creation;  // post ids in creation order
  std::vector<datagen::PlatformEvent> events;
};

const ReplayCorpus& ReplayCorpusOf(int posts) {
  static std::map<int, ReplayCorpus> corpora;
  auto [it, made] = corpora.try_emplace(posts);
  ReplayCorpus& c = it->second;
  if (!made) return c;
  datagen::GeneratorConfig config;
  config.num_posts = posts;
  config.num_pages = std::max(40, posts / 10);
  config.base_mean_size = 6.0;
  config.seed = 2021;
  const datagen::SyntheticDataset data = datagen::Generator(config).Generate();
  c.events = datagen::BuildEventStream(data);
  c.creation.resize(data.cascades.size());
  for (const datagen::Cascade& cascade : data.cascades) {
    c.creation[static_cast<size_t>(cascade.post.id)] = cascade.post.creation_time;
  }
  c.by_creation.resize(c.creation.size());
  std::iota(c.by_creation.begin(), c.by_creation.end(), 0);
  std::stable_sort(c.by_creation.begin(), c.by_creation.end(),
                   [&](int32_t a, int32_t b) { return c.creation[a] < c.creation[b]; });
  return c;
}

// The write path at corpus scale: a corpus's whole event stream replayed
// into one tracker per post, each made when the stream reaches its post's
// creation time, as a service registers items.  The trackers live on the
// heap like a service's items, so at 10^5 posts their state spreads far
// past the caches, which the single-tracker micros above never do.
// `ns_per_event` times the replay, tracker construction included;
// `bytes_per_tracker` is the mean MemoryBytes() at the end of the stream.
void BM_CascadeTrackerReplay(benchmark::State& state) {
  const ReplayCorpus& c = ReplayCorpusOf(static_cast<int>(state.range(0)));
  const auto layout = std::make_shared<const TrackerLayout>(TrackerConfig{});
  double replay_ns = 0.0;
  double bytes_per_tracker = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<CascadeTracker>> trackers(c.creation.size());
    size_t made = 0;
    const auto make_until = [&](double t) {
      for (; made < c.by_creation.size() && c.creation[c.by_creation[made]] <= t; ++made) {
        const int32_t id = c.by_creation[made];
        trackers[id] = std::make_unique<CascadeTracker>(c.creation[id], layout);
      }
    };
    for (const datagen::PlatformEvent& e : c.events) {
      make_until(e.time);
      trackers[e.post_id]->Observe(e.type, e.time);
    }
    make_until(std::numeric_limits<double>::infinity());
    replay_ns += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start).count();
    state.PauseTiming();
    size_t bytes = 0;
    for (const auto& tracker : trackers) bytes += tracker->MemoryBytes();
    bytes_per_tracker = static_cast<double>(bytes) / static_cast<double>(trackers.size());
    trackers.clear();
    state.ResumeTiming();
  }
  state.counters["ns_per_event"] =
      replay_ns / static_cast<double>(state.iterations() * c.events.size());
  state.counters["bytes_per_tracker"] = bytes_per_tracker;
}
BENCHMARK(BM_CascadeTrackerReplay)->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
