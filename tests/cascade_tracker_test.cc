#include "stream/cascade_tracker.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/units.h"
#include "datagen/generator.h"
#include "reference_dgim.h"
#include "stream/exponential_histogram.h"

namespace horizon::stream {
namespace {

TrackerConfig SmallConfig() {
  TrackerConfig config;
  config.window_lengths = {10.0, 100.0};
  config.landmark_ages = {5.0, 50.0};
  config.ewma_tau = 10.0;
  config.epsilon = 0.01;
  return config;
}

TEST(CascadeTrackerTest, TotalsPerType) {
  CascadeTracker tracker(100.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 101.0);
  tracker.Observe(EngagementType::kView, 102.0);
  tracker.Observe(EngagementType::kShare, 103.0);
  EXPECT_EQ(tracker.TotalCount(EngagementType::kView), 2u);
  EXPECT_EQ(tracker.TotalCount(EngagementType::kShare), 1u);
  EXPECT_EQ(tracker.TotalCount(EngagementType::kComment), 0u);
}

TEST(CascadeTrackerTest, LandmarkCountsAreExact) {
  CascadeTracker tracker(0.0, SmallConfig());
  // Events at ages 1, 2, 4.9, 5.1, 20, 60.
  for (double t : {1.0, 2.0, 4.9, 5.1, 20.0, 60.0}) {
    tracker.Observe(EngagementType::kView, t);
  }
  const auto snap = tracker.Snapshot(70.0);
  // Landmark 5.0: events with age <= 5 -> {1, 2, 4.9} = 3.
  EXPECT_EQ(snap.views().landmark_counts[0], 3u);
  // Landmark 50: {1, 2, 4.9, 5.1, 20} = 5.
  EXPECT_EQ(snap.views().landmark_counts[1], 5u);
  EXPECT_EQ(snap.views().total, 6u);
}

TEST(CascadeTrackerTest, LandmarkBeforeReachedReportsRunningTotal) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 1.0);
  tracker.Observe(EngagementType::kView, 2.0);
  const auto snap = tracker.Snapshot(3.0);  // before both landmarks
  EXPECT_EQ(snap.views().landmark_counts[0], 2u);
  EXPECT_EQ(snap.views().landmark_counts[1], 2u);
}

TEST(CascadeTrackerTest, WindowCountsApproximatelyCorrect) {
  CascadeTracker tracker(0.0, SmallConfig());
  for (int i = 0; i < 200; ++i) {
    tracker.Observe(EngagementType::kView, static_cast<double>(i));
  }
  const auto snap = tracker.Snapshot(199.5);
  // ~10 events in the last 10 s, ~100 in the last 100 s.
  EXPECT_NEAR(static_cast<double>(snap.views().window_counts[0]), 10.0, 2.0);
  EXPECT_NEAR(static_cast<double>(snap.views().window_counts[1]), 100.0, 5.0);
  EXPECT_NEAR(snap.views().window_rates[1] * 100.0,
              static_cast<double>(snap.views().window_counts[1]), 1e-9);
}

TEST(CascadeTrackerTest, MeanEventAge) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 2.0);
  tracker.Observe(EngagementType::kView, 4.0);
  tracker.Observe(EngagementType::kView, 6.0);
  const auto snap = tracker.Snapshot(10.0);
  EXPECT_DOUBLE_EQ(snap.views().mean_event_age, 4.0);
  EXPECT_DOUBLE_EQ(snap.views().first_event_age, 2.0);
  EXPECT_DOUBLE_EQ(snap.views().last_event_age, 6.0);
}

TEST(CascadeTrackerTest, EmptyStreamSnapshot) {
  CascadeTracker tracker(0.0, SmallConfig());
  const auto snap = tracker.Snapshot(10.0);
  EXPECT_EQ(snap.views().total, 0u);
  EXPECT_EQ(snap.views().first_event_age, -1.0);
  EXPECT_EQ(snap.views().last_event_age, -1.0);
  EXPECT_EQ(snap.views().ewma_rate, 0.0);
  EXPECT_EQ(snap.views().mean_event_age, 0.0);
}

TEST(CascadeTrackerTest, EwmaRateDecaysBetweenEvents) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 1.0);
  const auto early = tracker.Snapshot(1.0);
  const auto late = tracker.Snapshot(31.0);
  EXPECT_GT(early.views().ewma_rate, 0.0);
  EXPECT_NEAR(late.views().ewma_rate,
              early.views().ewma_rate * std::exp(-30.0 / 10.0), 1e-12);
}

TEST(CascadeTrackerTest, EwmaRateTracksSteadyRate) {
  TrackerConfig config = SmallConfig();
  config.ewma_tau = 50.0;
  CascadeTracker tracker(0.0, config);
  // Steady rate of 2 events/s for 200 s.
  for (int i = 0; i < 400; ++i) {
    tracker.Observe(EngagementType::kView, i * 0.5);
  }
  const auto snap = tracker.Snapshot(199.5);
  EXPECT_NEAR(snap.views().ewma_rate, 2.0, 0.3);
}

TEST(CascadeTrackerTest, StreamsAreIndependent) {
  CascadeTracker tracker(0.0, SmallConfig());
  tracker.Observe(EngagementType::kView, 1.0);
  tracker.Observe(EngagementType::kComment, 2.0);
  const auto snap = tracker.Snapshot(3.0);
  EXPECT_EQ(snap.views().total, 1u);
  EXPECT_EQ(snap.comments().total, 1u);
  EXPECT_EQ(snap.shares().total, 0u);
  EXPECT_DOUBLE_EQ(snap.views().last_event_age, 1.0);
  EXPECT_DOUBLE_EQ(snap.comments().last_event_age, 2.0);
}

TEST(CascadeTrackerTest, WindowsOfOneStreamCountIndependently) {
  TrackerConfig config = SmallConfig();
  config.landmark_ages.clear();
  CascadeTracker tracker(0.0, config);
  for (int i = 0; i < 100; ++i) {
    tracker.Observe(EngagementType::kView, static_cast<double>(i));
  }
  const auto snap = tracker.Snapshot(99.5);
  // At t = 99.5: the 10 s window holds ~10 events, the 100 s one ~100.
  EXPECT_EQ(snap.num_windows, 2u);
  EXPECT_NEAR(static_cast<double>(snap.views().window_counts[0]), 10.0, 2.0);
  EXPECT_NEAR(static_cast<double>(snap.views().window_counts[1]), 100.0, 3.0);
  EXPECT_NEAR(snap.views().window_rates[0], 1.0, 0.2);
  EXPECT_NEAR(snap.views().window_rates[1], 1.0, 0.05);
  EXPECT_EQ(snap.views().window_counts[2], 0u);  // past the layout
  EXPECT_EQ(snap.views().total, 100u);
}

// The tracker's windows run the same DGIM code as the standalone
// histogram, so their counts agree exactly.
TEST(CascadeTrackerTest, WindowCountsMatchStandaloneHistogram) {
  const TrackerConfig config;  // default layout, epsilon = 0.05
  CascadeTracker tracker(0.0, config);
  std::vector<ExponentialHistogram> reference;
  for (const double w : config.window_lengths) reference.emplace_back(w, config.epsilon);
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    t += (i % 97 == 0) ? 4000.0 : 1.0 + (i % 13);  // bursts and gaps
    tracker.Observe(EngagementType::kShare, t);
    for (auto& h : reference) h.Add(t);
    if (i % 50 == 0) {
      const auto snap = tracker.Snapshot(t + 30.0);
      for (size_t w = 0; w < reference.size(); ++w) {
        ASSERT_EQ(snap.shares().window_counts[w], reference[w].Count(t + 30.0))
            << "event " << i << ", window " << w;
      }
    }
  }
}

/// One stream's windows, run by the scan-based reference Add.
struct OracleWindow {
  std::vector<reference::Bucket> buckets;
  size_t n = 0;
};
using OracleStreams = std::array<std::vector<OracleWindow>, kNumEngagementTypes>;

/// The blob a tracker whose windows ran the reference Add would write:
/// `blob` with every window's buckets replaced by the oracle's.  The rest
/// of the blob (stream scalars and landmarks; an empty stream's total,
/// which is all it writes) does not depend on Add and is copied.
std::string WithOracleWindows(const std::string& blob, const OracleStreams& oracle) {
  std::istringstream in(blob);
  std::ostringstream out;
  out.precision(17);
  std::string line;
  const auto copy_lines = [&](int lines) {
    for (int i = 0; i < lines && std::getline(in, line); ++i) out << line << "\n";
  };
  copy_lines(2);  // "trk v2", then the creation time and the layout
  for (const std::vector<OracleWindow>& windows : oracle) {
    copy_lines(1);  // the scalars and landmarks, or an empty stream's "0"
    if (line == "0") continue;
    for (const OracleWindow& w : windows) {
      size_t buckets = 0;
      std::getline(in, line);
      std::istringstream(line) >> buckets;
      for (size_t b = 0; b < buckets; ++b) std::getline(in, line);
      reference::WriteBuckets(out, w.buckets.data(), w.n);
    }
  }
  return out.str();
}

// Every tracker over a generated corpus serializes byte for byte as a
// tracker whose windows ran the scan-based Add (reference_dgim.h), under
// the default layout and under a tight one (epsilon 0.01, windows from
// 1 s to 30 days).
TEST(CascadeTrackerTest, TrackerMatchesDgimOracle) {
  datagen::GeneratorConfig corpus;
  corpus.num_pages = 20;
  corpus.num_posts = 200;
  corpus.base_mean_size = 200.0;
  corpus.seed = 22;
  const datagen::SyntheticDataset dataset = datagen::Generator(corpus).Generate();
  TrackerConfig tight;
  tight.window_lengths = {1.0, kHour, 30 * kDay};
  tight.landmark_ages = {kHour};
  tight.epsilon = 0.01;
  size_t events = 0;
  for (const TrackerConfig& config : {TrackerConfig{}, tight}) {
    const auto layout = std::make_shared<const TrackerLayout>(config);
    const size_t k = layout->max_per_size;
    for (const datagen::Cascade& cascade : dataset.cascades) {
      const double creation = cascade.post.creation_time;
      CascadeTracker tracker(creation, layout);
      OracleStreams oracle;
      std::array<std::vector<double>, kNumEngagementTypes> ages;
      for (const auto& view : cascade.views) ages[0].push_back(view.time);
      ages[1] = cascade.share_times;
      ages[2] = cascade.comment_times;
      ages[3] = cascade.reaction_times;
      for (int type = 0; type < kNumEngagementTypes; ++type) {
        oracle[type].resize(config.window_lengths.size());
        for (OracleWindow& w : oracle[type]) w.buckets.resize(64 * k + 1);
        for (const double age : ages[type]) {
          const double t = creation + age;
          tracker.Observe(static_cast<EngagementType>(type), t);
          for (size_t i = 0; i < config.window_lengths.size(); ++i) {
            OracleWindow& w = oracle[type][i];
            w.n = reference::DgimAdd(w.buckets.data(), w.n, t - creation,
                                     config.window_lengths[i], k);
          }
          ++events;
        }
      }
      const std::string blob = tracker.Serialize();
      ASSERT_EQ(blob, WithOracleWindows(blob, oracle))
          << "post " << cascade.post.id << ", epsilon " << config.epsilon;
    }
  }
  EXPECT_GT(events, 20000u);
}

TEST(CascadeTrackerTest, TrackersShareOneLayout) {
  const auto layout = std::make_shared<const TrackerLayout>(SmallConfig());
  EXPECT_EQ(layout->max_per_size, 101u);  // ceil(1 / 0.01) + 1
  CascadeTracker a(0.0, layout);
  CascadeTracker b(0.0, layout);
  CascadeTracker own(0.0, SmallConfig());
  for (const double t : {1.0, 2.0, 30.0}) {
    a.Observe(EngagementType::kView, t);
    own.Observe(EngagementType::kView, t);
  }
  EXPECT_EQ(layout.use_count(), 3);
  EXPECT_EQ(a.Serialize(), own.Serialize());
  EXPECT_EQ(b.TotalCount(EngagementType::kView), 0u);
}

TEST(CascadeTrackerTest, ConvenienceConstructorCopiesTheConfig) {
  TrackerConfig config = SmallConfig();
  CascadeTracker tracker(0.0, config);
  // The tracker must not read the caller's config again.
  config.window_lengths = {1.0};
  config.landmark_ages = {0.5};
  tracker.Observe(EngagementType::kView, 1.0);
  const auto snap = tracker.Snapshot(60.0);
  EXPECT_EQ(snap.num_windows, 2u);
  EXPECT_EQ(snap.views().window_counts[1], 1u);   // in the 100 s window
  EXPECT_EQ(snap.views().landmark_counts[0], 1u); // landmark 5 s
}

// A regression guard on the per-item constant: an empty tracker of the
// default layout (4 windows, 4 landmarks, 4 streams) allocates nothing,
// so its footprint is the object itself: the layout pointer, the creation
// time and each stream's block pointer.  Per-stream scalars or per-window
// state held inline would break the bound.
TEST(CascadeTrackerTest, EmptyTrackerIsSmall) {
  const CascadeTracker tracker(0.0, TrackerConfig{});
  EXPECT_EQ(tracker.MemoryBytes(), sizeof(CascadeTracker));
  EXPECT_LE(tracker.MemoryBytes(), 56u);
}

// An empty stream costs one null pointer: a tracker whose only events are
// views owns exactly one heap block, the view stream's, through every
// growth and every refit after a gap empties its windows.
TEST(CascadeTrackerTest, ViewsOnlyTrackerOwnsOneBlock) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  const auto layout = std::make_shared<const TrackerLayout>(TrackerConfig{});
  const std::ptrdiff_t before = test::ThreadLiveBlocks();
  {
    CascadeTracker tracker(0.0, layout);
    EXPECT_EQ(test::ThreadLiveBlocks(), before);
    double t = 0.0;
    for (int i = 0; i < 5000; ++i) {
      t += i % 1000 == 999 ? 2 * kDay : 1.0;
      tracker.Observe(EngagementType::kView, t);
      ASSERT_EQ(test::ThreadLiveBlocks() - before, 1) << "event " << i;
    }
    EXPECT_EQ(tracker.TotalCount(EngagementType::kView), 5000u);
  }
  EXPECT_EQ(test::ThreadLiveBlocks(), before);
#endif
}

// Deserialize builds a block only for a stream with events: a views-only
// blob restores into one block, an empty tracker's blob into none.
TEST(CascadeTrackerTest, DeserializeAllocatesNoBlockForAnEmptyStream) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  const auto layout = std::make_shared<const TrackerLayout>(TrackerConfig{});
  CascadeTracker source(0.0, layout);
  for (const double t : {10.0, 20.0, 4000.0}) source.Observe(EngagementType::kView, t);
  const std::string views_blob = source.Serialize();
  const std::string empty_blob = CascadeTracker(0.0, layout).Serialize();
  const std::ptrdiff_t before = test::ThreadLiveBlocks();
  {
    CascadeTracker restored(0.0, layout);
    ASSERT_TRUE(restored.Deserialize(views_blob));
    EXPECT_EQ(test::ThreadLiveBlocks() - before, 1);
    EXPECT_EQ(restored.Serialize(), views_blob);
    ASSERT_TRUE(restored.Deserialize(empty_blob));
    EXPECT_EQ(test::ThreadLiveBlocks(), before);
    EXPECT_EQ(restored.MemoryBytes(), sizeof(CascadeTracker));
    EXPECT_EQ(restored.Serialize(), empty_blob);
  }
  EXPECT_EQ(test::ThreadLiveBlocks(), before);
#endif
}

// A checkpoint appends a shard's trackers to one buffer sized up front
// from SerializedBytesBound(): a tracker appends to a buffer with room
// without allocating.
TEST(CascadeTrackerTest, SerializeToABufferWithRoomAllocatesNothing) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  CascadeTracker tracker(1000.0, TrackerConfig{});
  for (int i = 0; i < 600; ++i) {
    tracker.Observe(static_cast<EngagementType>(i % 3), 1000.0 + 7.5 * i);
  }
  const std::string blob = tracker.Serialize();
  ASSERT_LE(blob.size(), tracker.SerializedBytesBound());
  std::string buffer = "shard v3\n";
  buffer.reserve(buffer.size() + tracker.SerializedBytesBound());
  const size_t before = test::ThreadAllocations();
  tracker.SerializeTo(&buffer);
  EXPECT_EQ(test::ThreadAllocations(), before);
  EXPECT_EQ(buffer, "shard v3\n" + blob);
#endif
}

// MemoryBytes() counts every byte the tracker allocates: past the object
// itself, it is what the thread's live heap grew by while the tracker
// took its events, copies included.  Day-long gaps empty the windows, so
// blocks shrink as well as grow.
TEST(CascadeTrackerTest, MemoryBytesMatchesLiveHeapBytes) {
#ifdef HORIZON_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes own operator new";
#else
  const auto layout = std::make_shared<const TrackerLayout>(TrackerConfig{});
  Rng rng(11);
  for (const int events : {0, 1, 30, 200000}) {
    const std::ptrdiff_t before = test::ThreadLiveBytes();
    {
      CascadeTracker tracker(0.0, layout);
      double t = 0.0;
      for (int i = 0; i < events; ++i) {
        t += i % 20000 == 19999 ? 2 * kDay : rng.Exponential(0.5);
        tracker.Observe(static_cast<EngagementType>(rng.UniformInt(kNumEngagementTypes)),
                        t);
      }
      const auto heap = static_cast<std::ptrdiff_t>(tracker.MemoryBytes() -
                                                    sizeof(CascadeTracker));
      EXPECT_EQ(test::ThreadLiveBytes() - before, heap) << events << " events";
      const CascadeTracker copy = tracker;
      EXPECT_EQ(copy.MemoryBytes(), tracker.MemoryBytes());
      EXPECT_EQ(test::ThreadLiveBytes() - before, 2 * heap) << events << " events";
    }
    EXPECT_EQ(test::ThreadLiveBytes(), before) << events << " events";
  }
#endif
}

// O(1) state: memory follows the DGIM bucket bound, not the event count.
TEST(CascadeTrackerTest, MemoryIsBoundedInTheEventCount) {
  CascadeTracker tracker(0.0, TrackerConfig{});
  size_t after_half = 0;
  for (int i = 1; i <= 200000; ++i) {
    tracker.Observe(EngagementType::kView, static_cast<double>(i));
    if (i == 100000) after_half = tracker.MemoryBytes();
  }
  EXPECT_GT(after_half, sizeof(CascadeTracker));
  // Exact 24 h counts alone would take 86400 * 8 B; the histograms keep
  // O(log(W) / epsilon) buckets per window.
  EXPECT_LT(tracker.MemoryBytes(), 64u * 1024u);
  EXPECT_LE(tracker.MemoryBytes(), after_half + 4096u);
}

// A stream block keeps each window's bucket count and capacity in 16
// bits.  At the smallest epsilon a layout accepts, windows hold thousands
// of buckets (1022 of each size): the counts stay within epsilon and the
// tracker round-trips through its blob.  A smaller epsilon is refused.
TEST(CascadeTrackerTest, SmallestEpsilonKeepsThousandsOfBucketsPerWindow) {
  TrackerConfig config;
  config.epsilon = kMinEpsilon;
  const auto layout = std::make_shared<const TrackerLayout>(config);
  EXPECT_EQ(layout->max_per_size, 1022u);
  CascadeTracker tracker(0.0, layout);
  constexpr int kEvents = 20000;
  for (int i = 1; i <= kEvents; ++i) {
    tracker.Observe(EngagementType::kView, static_cast<double>(i));
  }
  const TrackerSnapshot snap = tracker.Snapshot(kEvents);
  for (size_t w = 0; w < config.window_lengths.size(); ++w) {
    const double exact = std::min<double>(kEvents, config.window_lengths[w]);
    EXPECT_NEAR(static_cast<double>(snap.views().window_counts[w]), exact,
                exact * kMinEpsilon)
        << "window " << w;
  }
  // More than 8192 bucket slots, 9 bytes each.
  EXPECT_GT(tracker.MemoryBytes(), 9u * 8192u);
  const std::string blob = tracker.Serialize();
  CascadeTracker restored(0.0, layout);
  ASSERT_TRUE(restored.Deserialize(blob));
  EXPECT_EQ(restored.Serialize(), blob);
  tracker.Observe(EngagementType::kView, kEvents + 1.0);
  restored.Observe(EngagementType::kView, kEvents + 1.0);
  EXPECT_EQ(restored.Serialize(), tracker.Serialize());
}

TEST(CascadeTrackerDeathTest, LayoutRefusesEpsilonBelowTheMinimum) {
  TrackerConfig config;
  config.epsilon = std::nextafter(kMinEpsilon, 0.0);
  EXPECT_DEATH(TrackerLayout{config}, "");
}

// A window keeps no total or last time of its own: its buckets are
// checked against its stream's.  Buckets newer than the stream's last
// event, or summing past its total, are rejected, as are times that
// decrease.
TEST(CascadeTrackerTest, DeserializeRejectsWindowDisagreeingWithItsStream) {
  CascadeTracker source(0.0, TrackerConfig{});
  for (const double t : {10.0, 20.0, 30.0}) source.Observe(EngagementType::kView, t);
  const std::string blob = source.Serialize();
  const auto tamper = [&](const std::string& from, const std::string& to) {
    std::string out = blob;
    const size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  // The view stream's scalars and landmarks, then its first window: the
  // bucket count, then the buckets.
  const std::string views = "\n3 10 30 0.00083102386796723451 60 0 0 0 0 0\n";
  ASSERT_NE(blob.find(views + "3\n10 1\n20 1\n30 1\n"), std::string::npos);
  const std::vector<std::string> bad = {
      // The stream's last event before its newest bucket.
      tamper(views, "\n3 10 29.5 0.00083102386796723451 60 0 0 0 0 0\n"),
      tamper("\n10 1\n20 1\n", "\n20 1\n10 1\n"),    // times decrease
      tamper("\n30 1\n", "\n31 1\n"),                 // past the last event
      tamper("\n20 1\n30 1\n", "\n20 2\n30 1\n"),    // sizes sum past total
  };
  for (const std::string& text : bad) {
    CascadeTracker tracker(5.0, TrackerConfig{});
    tracker.Observe(EngagementType::kShare, 6.0);
    const std::string before = tracker.Serialize();
    EXPECT_FALSE(tracker.Deserialize(text)) << text;
    EXPECT_EQ(tracker.Serialize(), before) << "a rejected blob changed the tracker";
  }
  CascadeTracker restored(0.0, TrackerConfig{});
  ASSERT_TRUE(restored.Deserialize(blob));
  ASSERT_TRUE(restored.Accepts(EngagementType::kView, 40.0));
  restored.Observe(EngagementType::kView, 40.0);
  source.Observe(EngagementType::kView, 40.0);
  EXPECT_EQ(restored.Serialize(), source.Serialize());
}

// Scalar fields no sequence of Observe calls can produce, one tamper per
// field.  A re-framed blob with such a field used to restore and then
// yield non-finite or impossible features (an EWMA rate of 1e300 reads
// as an infinite feature).
TEST(CascadeTrackerTest, DeserializeRejectsImpossibleScalarFields) {
  CascadeTracker source(0.0, TrackerConfig{});
  for (const double t : {10.0, 20.0, 30.0}) source.Observe(EngagementType::kView, t);
  for (const double t : {100.0, 2000.0}) source.Observe(EngagementType::kReaction, t);
  const std::string blob = source.Serialize();
  const auto tamper = [&](const std::string& from, const std::string& to) {
    std::string out = blob;
    const size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  // The view stream: "total first_age last_age ewma_rate age_sum
  // compensation", then a count per landmark; the share stream is empty.
  // The reaction stream's two events straddle the first landmark (30
  // min), which is done with count 1; the view stream's events all
  // precede it.
  const std::string views = "\n3 10 30 0.00083102386796723451 60 0 ";
  const std::string reactions = "\n2 100 2000 0.00044164289865134432 2100 0 ";
  ASSERT_NE(blob.find(views + "0 0 0 0\n"), std::string::npos);
  ASSERT_NE(blob.find("\n0\n"), std::string::npos);
  ASSERT_NE(blob.find(reactions + "1 0 0 0\n"), std::string::npos);
  const std::vector<std::string> bad = {
      // first_age < 0, and first_age > last_age
      tamper(views, "\n3 -10 30 0.00083102386796723451 60 0 "),
      tamper(views, "\n3 31 30 0.00083102386796723451 60 0 "),
      // EWMA rate below 0, above total / ewma_tau = 8.33e-4, and huge
      tamper(views, "\n3 10 30 -0.00083102386796723451 60 0 "),
      tamper(views, "\n3 10 30 0.00084 60 0 "),
      tamper(views, "\n3 10 30 1e300 60 0 "),
      // age sum below total * first_age = 30, above total * last_age = 90,
      // and a compensation term no Kahan sum of these ages carries
      tamper(views, "\n3 10 30 0.00083102386796723451 29 0 "),
      tamper(views, "\n3 10 30 0.00083102386796723451 91 0 "),
      tamper(views, "\n3 10 30 0.00083102386796723451 60 1 "),
      // A done count lies in [1, total - 1] once the first event precedes
      // the landmark: equal to the total, and 0, are both impossible.
      tamper(reactions + "1 ", reactions + "2 "),
      tamper(reactions + "1 ", reactions + "0 "),
      // A pending landmark counts 0.
      tamper(views + "0 ", views + "1 "),
  };
  for (const std::string& text : bad) {
    CascadeTracker tracker(5.0, TrackerConfig{});
    tracker.Observe(EngagementType::kShare, 6.0);
    const std::string before = tracker.Serialize();
    EXPECT_FALSE(tracker.Deserialize(text)) << text;
    EXPECT_EQ(tracker.Serialize(), before) << "a rejected blob changed the tracker";
  }
  CascadeTracker restored(0.0, TrackerConfig{});
  EXPECT_TRUE(restored.Deserialize(blob));
}

TEST(CascadeTrackerTest, SnapshotAgeIsRelativeToCreation) {
  CascadeTracker tracker(1000.0, SmallConfig());
  const auto snap = tracker.Snapshot(1010.0);
  EXPECT_DOUBLE_EQ(snap.age, 10.0);
}

// Scans and retirement sweeps skip a snapshot at s when HasEventAfter(s);
// from the creation time on, that is exactly some stream's Accepts(type, s)
// failing, down to the last double before the latest event.
TEST(CascadeTrackerTest, HasEventAfterNegatesAcceptsOverEveryStream) {
  CascadeTracker tracker(1000.1, SmallConfig());
  for (double s : {-1e9, 0.0, 1000.1, 1e9}) {
    EXPECT_FALSE(tracker.HasEventAfter(s)) << "an empty tracker, s = " << s;
  }
  tracker.Observe(EngagementType::kShare, 1020.7);
  tracker.Observe(EngagementType::kView, 1010.3);
  const double before_share = std::nextafter(1020.7, 0.0);
  EXPECT_TRUE(tracker.HasEventAfter(before_share));
  EXPECT_FALSE(tracker.HasEventAfter(1020.7));
  for (double s : {1000.1, 1005.0, 1010.3, before_share, 1020.7, 1e9}) {
    bool refused = false;
    for (int type = 0; type < kNumEngagementTypes; ++type) {
      refused |= !tracker.Accepts(static_cast<EngagementType>(type), s);
    }
    EXPECT_EQ(tracker.HasEventAfter(s), refused) << "s = " << s;
  }
}

// Checkpoint shard files hold Serialize() blobs, so this pins the byte
// format (`trk v2`): a layout change that moves one byte would stop
// existing checkpoints from restoring.  The default layout (epsilon = 0.05) sees
// events of all four types that cross window expiry, every landmark age
// and several bucket merges.  To regenerate after an INTENTIONAL format
// change (which also needs a "trk" version bump): HORIZON_PRINT_GOLDEN=1
// ./cascade_tracker_test --gtest_filter=CascadeTrackerTest.SerializeGolden,
// then paste the printed constants below.
TEST(CascadeTrackerTest, SerializeGolden) {
  constexpr uint32_t kBlobCrc = 0x12E9B294u;
  constexpr size_t kBlobBytes = 4561;
  constexpr double kCreation = 1000.0;
  CascadeTracker tracker(kCreation, TrackerConfig{});
  const auto at = [&](EngagementType type, double age) {
    tracker.Observe(type, kCreation + age);
  };
  // A 150-view burst inside the first 15 min merges buckets in every
  // window; after a 2 h gap, 60 more views; a second burst from 30 h on
  // is past every landmark and expires all the older buckets.
  for (int i = 0; i < 150; ++i) at(EngagementType::kView, 10.0 + 3.7 * i);
  for (int i = 0; i < 60; ++i) at(EngagementType::kView, 7200.0 + 61.3 * i);
  for (int i = 0; i < 80; ++i) at(EngagementType::kView, 30 * kHour + 0.25 + 5.5 * i);
  for (int i = 0; i < 40; ++i) at(EngagementType::kShare, 100.0 + 97.0 * i);
  at(EngagementType::kShare, 50000.0);
  for (const double age : {1000.5, 5000.25, 30000.125, 90000.0625}) {
    at(EngagementType::kComment, age);
  }
  // Reactions stop before the first landmark, so none is finalized.
  for (int i = 0; i < 30; ++i) at(EngagementType::kReaction, 2.0 + 0.1 * i);

  const std::string blob = tracker.Serialize();
  const uint32_t crc = io::Crc32(blob);
  if (std::getenv("HORIZON_PRINT_GOLDEN") != nullptr) {
    std::printf("  constexpr uint32_t kBlobCrc = 0x%08Xu;\n"
                "  constexpr size_t kBlobBytes = %zu;\n",
                crc, blob.size());
    return;
  }
  EXPECT_EQ(crc, kBlobCrc) << "rerun with HORIZON_PRINT_GOLDEN=1 to regenerate";
  EXPECT_EQ(blob.size(), kBlobBytes);
  CascadeTracker restored(0.0, TrackerConfig{});
  ASSERT_TRUE(restored.Deserialize(blob));
  EXPECT_EQ(restored.Serialize(), blob);
}

// An empty tracker's blob, verbatim: each empty stream is its total alone.
TEST(CascadeTrackerTest, SerializeGoldenEmpty) {
  const std::string blob = CascadeTracker(0.5, SmallConfig()).Serialize();
  if (std::getenv("HORIZON_PRINT_GOLDEN") != nullptr) {
    std::fputs(blob.c_str(), stdout);
    return;
  }
  EXPECT_EQ(blob,
            "trk v2\n"
            "0.5 2 2\n"
            "0\n"
            "0\n"
            "0\n"
            "0\n");
}

TEST(EngagementTypeTest, Names) {
  EXPECT_STREQ(EngagementTypeName(EngagementType::kView), "view");
  EXPECT_STREQ(EngagementTypeName(EngagementType::kShare), "share");
  EXPECT_STREQ(EngagementTypeName(EngagementType::kComment), "comment");
  EXPECT_STREQ(EngagementTypeName(EngagementType::kReaction), "reaction");
}

}  // namespace
}  // namespace horizon::stream
