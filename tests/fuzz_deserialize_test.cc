// Fuzz-style robustness tests (seeded, deterministic, no third-party
// fuzzing dependency) for the untrusted deserialization entry points:
// GbdtRegressor::Deserialize, HawkesPredictor::Deserialize and
// CascadeTracker::Deserialize.  Truncated, bit-flipped, and garbage inputs
// must return false -- never crash, hang, overflow, or make later
// Predict / Observe / Snapshot calls unsafe.  The CI runs this binary
// under ASan+UBSan and standalone UBSan (its "durability" label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/hawkes_predictor.h"
#include "gbdt/block_forest.h"
#include "gbdt/gbdt.h"
#include "reference_forest.h"
#include "stream/cascade_tracker.h"

namespace horizon {
namespace {

/// A tiny but genuinely trained GBDT whose blob exercises every section of
/// the format.
gbdt::GbdtRegressor TrainSmallGbdt() {
  constexpr size_t kRows = 200;
  constexpr size_t kFeatures = 5;
  gbdt::DataMatrix x(kRows, kFeatures);
  std::vector<double> y(kRows);
  Rng rng(42);
  for (size_t r = 0; r < kRows; ++r) {
    float* row = x.MutableRow(r);
    for (size_t f = 0; f < kFeatures; ++f) {
      row[f] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    y[r] = 2.0 * row[0] - row[3] + 0.1 * rng.Normal();
  }
  gbdt::GbdtParams params;
  params.num_trees = 10;
  gbdt::GbdtRegressor model(params);
  model.Fit(x, y);
  return model;
}

/// A tiny trained HawkesPredictor (2 reference horizons so the aggregation
/// section of the blob is populated).
core::HawkesPredictor TrainSmallPredictor() {
  constexpr size_t kRows = 150;
  constexpr size_t kFeatures = 4;
  gbdt::DataMatrix x(kRows, kFeatures);
  // Outer index: reference horizon; inner: example row (Fit's layout).
  std::vector<std::vector<double>> log1p_increments(2, std::vector<double>(kRows));
  std::vector<double> alpha_targets(kRows);
  Rng rng(7);
  for (size_t r = 0; r < kRows; ++r) {
    float* row = x.MutableRow(r);
    for (size_t f = 0; f < kFeatures; ++f) {
      row[f] = static_cast<float>(rng.Uniform(0.0, 2.0));
    }
    log1p_increments[0][r] = std::log1p(row[0] * 5.0);
    log1p_increments[1][r] = std::log1p(row[0] * 9.0);
    alpha_targets[r] = 1.0 / (rng.Uniform(1.0, 48.0) * kHour);
  }
  core::HawkesPredictorParams params;
  params.reference_horizons = {6 * kHour, 1 * kDay};
  params.gbdt_count.num_trees = 6;
  params.gbdt_alpha.num_trees = 6;
  core::HawkesPredictor model(params);
  model.Fit(x, log1p_increments, alpha_targets);
  return model;
}

/// Row large enough for whatever feature count a (possibly corrupted but
/// accepted) model declares.
std::vector<float> ZeroRowFor(const gbdt::GbdtRegressor& model) {
  return std::vector<float>(std::max<size_t>(model.num_features(), 1), 0.0f);
}

size_t MaxFeatures(const core::HawkesPredictor& model) {
  size_t n = model.alpha_model().num_features();
  for (size_t i = 0; i < model.num_reference_horizons(); ++i) {
    n = std::max(n, model.count_model(i).num_features());
  }
  return std::max<size_t>(n, 1);
}

// -- GbdtRegressor::Deserialize ------------------------------------------

TEST(FuzzGbdtDeserialize, RoundTripBaseline) {
  const gbdt::GbdtRegressor model = TrainSmallGbdt();
  const std::string blob = model.Serialize();
  gbdt::GbdtRegressor restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  const auto row = ZeroRowFor(restored);
  EXPECT_EQ(restored.Predict(row.data()), model.Predict(row.data()));
}

TEST(FuzzGbdtDeserialize, TruncationsNeverCrash) {
  const std::string blob = TrainSmallGbdt().Serialize();
  // Every prefix length (dense near the tail, strided through the body so
  // the loop stays fast even for large blobs).
  for (size_t len = 0; len <= blob.size(); len = (len < 64 || len + 64 >= blob.size()) ? len + 1 : len + 7) {
    gbdt::GbdtRegressor model;
    const bool ok = model.Deserialize(blob.substr(0, len));
    if (ok) {
      // Acceptable only if the parsed model is fully usable.
      const auto row = ZeroRowFor(model);
      const double p = model.Predict(row.data());
      EXPECT_TRUE(std::isfinite(p)) << "truncation at " << len;
    }
  }
}

TEST(FuzzGbdtDeserialize, BitFlipsNeverCrash) {
  const std::string blob = TrainSmallGbdt().Serialize();
  Rng rng(0xF1125001);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    // 1-3 independent bit flips.
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.UniformInt(8)));
    }
    gbdt::GbdtRegressor model;
    if (model.Deserialize(mutated)) {
      ++accepted;
      const auto row = ZeroRowFor(model);
      const double p = model.Predict(row.data());
      (void)p;  // finiteness not required (a value byte may have mutated)
    }
  }
  // Sanity: the harness is actually exercising the parser, not rejecting
  // everything at some outer guard.
  SUCCEED() << accepted << "/2000 mutated blobs parsed";
}

TEST(FuzzGbdtDeserialize, GarbageRejected) {
  Rng rng(0xF1125002);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.UniformInt(4096), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.UniformInt(256));
    gbdt::GbdtRegressor model;
    EXPECT_FALSE(model.Deserialize(garbage));
    EXPECT_FALSE(model.trained());
  }
}

TEST(FuzzGbdtDeserialize, AbsurdSizesRejectedWithoutAllocating) {
  gbdt::GbdtRegressor model;
  // Headers declaring astronomically many features/trees/nodes must be
  // rejected by the caps, not die in std::vector::resize.
  // (Format: "gbdt v1\n<features> <base> <lr> <trees>\n" then per tree
  // "<nodes>\n" + node lines "<feature> <threshold> <left> <right> <value>".)
  EXPECT_FALSE(model.Deserialize("gbdt v1\n999999999999 0.0 0.1 1\n"));
  EXPECT_FALSE(model.Deserialize("gbdt v1\n5 0.0 0.1 888888888888\n"));
  EXPECT_FALSE(model.Deserialize("gbdt v1\n5 0.0 0.1 1\n777777777777\n"));
  EXPECT_FALSE(model.Deserialize("gbdt v1\n-3 0.0 0.1 1\n"));
  EXPECT_FALSE(model.Deserialize("gbdt v1\n5 inf 0.1 0\n"));
  EXPECT_FALSE(model.trained());
}

TEST(FuzzGbdtDeserialize, CyclicNodeIndicesRejected) {
  // A node whose child points at itself or backwards would make the
  // compiled forest loop; the parser must reject it.
  const std::string self_loop =
      "gbdt v1\n"
      "1 0.0 0.1 1\n"
      "1\n"
      "0 0.5 0 0 0.0\n";  // internal node whose children are itself
  gbdt::GbdtRegressor model;
  EXPECT_FALSE(model.Deserialize(self_loop));
  const std::string backward_edge =
      "gbdt v1\n"
      "1 0.0 0.1 1\n"
      "3\n"
      "0 0.5 1 2 0.0\n"
      "-1 0.0 -1 -1 1.0\n"
      "0 0.25 1 0 2.0\n";  // node 2 points back at nodes 1 and 0
  gbdt::GbdtRegressor model2;
  EXPECT_FALSE(model2.Deserialize(backward_edge));
}

TEST(FuzzGbdtDeserialize, TreeDeeperThanTheBlockedLayoutRejected) {
  // Well-formed chains one level past BlockForest::kMaxBlockedDepth, and
  // far past it (deep enough to put a recursive depth count at risk of
  // the stack), parse as valid trees that no inference path walks:
  // Deserialize refuses them and leaves the model as it was.
  for (const int depth : {gbdt::BlockForest::kMaxBlockedDepth + 1, 1 << 16}) {
    SCOPED_TRACE(testing::Message() << "depth " << depth);
    const std::string blob = gbdt::reference::GbdtText(
        {gbdt::reference::MakeChainTree(depth)}, 1, 0.5, 0.1);
    gbdt::GbdtRegressor fresh;
    EXPECT_FALSE(fresh.Deserialize(blob));
    EXPECT_FALSE(fresh.trained());
    gbdt::GbdtRegressor trained = TrainSmallGbdt();
    const std::string before = trained.Serialize();
    EXPECT_FALSE(trained.Deserialize(blob));
    EXPECT_EQ(trained.Serialize(), before);
  }
}

// -- HawkesPredictor::Deserialize ----------------------------------------

TEST(FuzzHawkesDeserialize, RoundTripBaseline) {
  const core::HawkesPredictor model = TrainSmallPredictor();
  const std::string blob = model.Serialize();
  core::HawkesPredictor restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  const std::vector<float> row(MaxFeatures(restored), 0.5f);
  EXPECT_EQ(restored.PredictIncrement(row.data(), 1 * kDay),
            model.PredictIncrement(row.data(), 1 * kDay));
  EXPECT_EQ(restored.PredictAlpha(row.data()), model.PredictAlpha(row.data()));
}

TEST(FuzzHawkesDeserialize, TruncationsNeverCrash) {
  const std::string blob = TrainSmallPredictor().Serialize();
  for (size_t len = 0; len <= blob.size(); len = (len < 64 || len + 64 >= blob.size()) ? len + 1 : len + 7) {
    core::HawkesPredictor model;
    if (model.Deserialize(blob.substr(0, len))) {
      const std::vector<float> row(MaxFeatures(model), 0.0f);
      const double p = model.PredictIncrement(row.data(), 1 * kDay);
      EXPECT_TRUE(std::isfinite(p)) << "truncation at " << len;
    }
  }
}

TEST(FuzzHawkesDeserialize, BitFlipsNeverCrash) {
  const std::string blob = TrainSmallPredictor().Serialize();
  Rng rng(0xF1125003);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.UniformInt(8)));
    }
    core::HawkesPredictor model;
    if (model.Deserialize(mutated)) {
      ++accepted;
      const std::vector<float> row(MaxFeatures(model), 0.0f);
      (void)model.PredictAlpha(row.data());
      (void)model.PredictIncrement(row.data(), 6 * kHour);
    }
  }
  SUCCEED() << accepted << "/2000 mutated blobs parsed";
}

TEST(FuzzHawkesDeserialize, GarbageRejected) {
  Rng rng(0xF1125004);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.UniformInt(4096), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.UniformInt(256));
    core::HawkesPredictor model;
    EXPECT_FALSE(model.Deserialize(garbage));
    EXPECT_FALSE(model.trained());
  }
}

TEST(FuzzHawkesDeserialize, AbsurdHeadersRejected) {
  core::HawkesPredictor model;
  EXPECT_FALSE(model.Deserialize(""));
  EXPECT_FALSE(model.Deserialize("hwk v1\n"));
  // Far more reference horizons than the cap allows.
  EXPECT_FALSE(model.Deserialize("hwk v1\n1000000 geo 1e-8 1e-2\n"));
  // Non-increasing reference horizons.
  EXPECT_FALSE(model.Deserialize("hwk v1\n2 geo 1e-8 1e-2\n86400 86400\n"));
  // Inverted alpha clamp range.
  EXPECT_FALSE(model.Deserialize("hwk v1\n1 geo 1e-2 1e-8\n86400\n"));
  EXPECT_FALSE(model.trained());
}

// -- CascadeTracker::Deserialize -----------------------------------------

/// A tracker whose blob has every section populated: all four streams,
/// finalized and open landmarks, merged buckets in every view window
/// (300 views ~10 s apart, then 100 other events ~60 s apart).
stream::CascadeTracker BusyTracker() {
  stream::CascadeTracker tracker(1000.0, stream::TrackerConfig{});
  Rng rng(0xF1125005);
  double t = 1000.0;
  for (int i = 0; i < 400; ++i) {
    t += rng.Exponential(i < 300 ? 1.0 / 10.0 : 1.0 / 60.0);
    const auto type = static_cast<stream::EngagementType>(
        i < 300 ? 0 : 1 + rng.UniformInt(stream::kNumEngagementTypes - 1));
    tracker.Observe(type, t);
  }
  return tracker;
}

/// An accepted blob must leave a tracker that serves: snapshots at and
/// after its last event, and events that Accepts admits, never abort.
void DriveForward(stream::CascadeTracker* tracker) {
  const double creation = tracker->creation_time();
  double last_age = 0.0;
  for (const auto& stream : tracker->Snapshot(creation).streams) {
    last_age = std::max(last_age, stream.last_event_age);
  }
  for (const double dt : {0.0, 1.0, 900.0, 2 * kDay}) {
    const double t = creation + last_age + dt;
    if (!std::isfinite(t) || t < creation) continue;
    for (int type = 0; type < stream::kNumEngagementTypes; ++type) {
      const auto engagement = static_cast<stream::EngagementType>(type);
      if (tracker->Accepts(engagement, t)) tracker->Observe(engagement, t);
    }
    (void)tracker->Snapshot(t);
    (void)tracker->MemoryBytes();
  }
  (void)tracker->Serialize();
}

TEST(FuzzTrackerDeserialize, RoundTripIsByteIdentical) {
  const stream::CascadeTracker busy = BusyTracker();
  const stream::CascadeTracker empty(5.0, stream::TrackerConfig{});
  for (const stream::CascadeTracker* source : {&busy, &empty}) {
    const std::string blob = source->Serialize();
    stream::CascadeTracker restored(0.0, stream::TrackerConfig{});
    ASSERT_TRUE(restored.Deserialize(blob));
    EXPECT_EQ(restored.Serialize(), blob);
    const double s = source->creation_time() + 3 * kDay;
    const stream::TrackerSnapshot a = source->Snapshot(s);
    const stream::TrackerSnapshot b = restored.Snapshot(s);
    for (int i = 0; i < stream::kNumEngagementTypes; ++i) {
      EXPECT_EQ(a.streams[i].window_counts, b.streams[i].window_counts);
      EXPECT_EQ(a.streams[i].landmark_counts, b.streams[i].landmark_counts);
      EXPECT_EQ(a.streams[i].ewma_rate, b.streams[i].ewma_rate);
    }
    DriveForward(&restored);
  }
}

// A window keeps each bucket's size as its log2 in one byte, and the
// largest size a power-of-two uint64 holds is 2^63 (log2 63).  A view
// stream of 2^63 events whose windows each hold one such bucket restores
// and writes itself back byte for byte.
TEST(FuzzTrackerDeserialize, LargestBucketRoundTrips) {
  const uint64_t n = uint64_t{1} << 63;
  const stream::TrackerConfig config;
  stream::CascadeTracker one_view(0.0, config);
  one_view.Observe(stream::EngagementType::kView, 10.0);
  // The blob of one view at age 10, with the view stream's total, age
  // sum and bucket sizes raised to 2^63 events at that age.
  std::ostringstream views;
  views.precision(17);
  views << n << " 10 10 " << 1.0 / config.ewma_tau << " 10 "
        << 10.0 * static_cast<double>(n) << " 0\n";
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) views << "0 0 ";
  views << "\n" << config.window_lengths.size() << "\n";
  for (size_t i = 0; i < config.window_lengths.size(); ++i) {
    views << n << " 10 1\n10 " << n << "\n";
  }
  std::istringstream in(one_view.Serialize());
  std::string blob, line;
  for (int i = 0; i < 2 && std::getline(in, line); ++i) blob += line + "\n";
  blob += views.str();
  // Skip the one-view stream: scalars, landmarks, the window count and
  // each window's header and one bucket.
  for (size_t i = 0; i < 3 + 2 * config.window_lengths.size(); ++i) std::getline(in, line);
  while (std::getline(in, line)) blob += line + "\n";

  stream::CascadeTracker restored(0.0, config);
  ASSERT_TRUE(restored.Deserialize(blob)) << blob;
  EXPECT_EQ(restored.Serialize(), blob);
  EXPECT_EQ(restored.TotalCount(stream::EngagementType::kView), n);
  // The one bucket straddles every window's boundary: half of it counts.
  EXPECT_EQ(restored.Snapshot(10.0).views().window_counts[0], n / 2);
}

TEST(FuzzTrackerDeserialize, TruncationsNeverCrash) {
  const std::string blob = BusyTracker().Serialize();
  for (size_t len = 0; len <= blob.size(); len = (len < 64 || len + 64 >= blob.size()) ? len + 1 : len + 7) {
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    if (tracker.Deserialize(blob.substr(0, len))) DriveForward(&tracker);
  }
}

TEST(FuzzTrackerDeserialize, BitFlipsNeverCrash) {
  const std::string blob = BusyTracker().Serialize();
  Rng rng(0xF1125006);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.UniformInt(8)));
    }
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    if (tracker.Deserialize(mutated)) {
      ++accepted;
      DriveForward(&tracker);
    }
  }
  SUCCEED() << accepted << "/2000 mutated blobs parsed";
}

// Bit flips mostly break the number syntax; swapping whole tokens for
// extreme but well-formed values reaches the consistency checks.
TEST(FuzzTrackerDeserialize, TokenSwapsNeverCrash) {
  const std::string blob = BusyTracker().Serialize();
  std::vector<std::string> tokens;
  {
    std::istringstream is(blob);
    for (std::string token; is >> token;) tokens.push_back(token);
  }
  const std::vector<std::string> values = {
      "0", "1", "-1", "2", "3", "64", "1409", "1e-300", "-1e300",
      "1e300", "1.7976931348623157e308", "18446744073709551615",
      "9223372036854775808", "-0", "0.5", "86400", "1000"};
  Rng rng(0xF1125007);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::string> mutated = tokens;
    const int swaps = 1 + static_cast<int>(rng.UniformInt(2));
    for (int k = 0; k < swaps; ++k) {
      mutated[2 + rng.UniformInt(mutated.size() - 2)] =
          values[rng.UniformInt(values.size())];
    }
    std::string text;
    for (const std::string& token : mutated) text += token + "\n";
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    if (tracker.Deserialize(text)) {
      ++accepted;
      DriveForward(&tracker);
    }
  }
  SUCCEED() << accepted << "/3000 token-swapped blobs parsed";
}

TEST(FuzzTrackerDeserialize, GarbageRejected) {
  Rng rng(0xF1125008);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(rng.UniformInt(4096), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.UniformInt(256));
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    EXPECT_FALSE(tracker.Deserialize(garbage));
    EXPECT_FALSE(tracker.Deserialize("trk v1\n" + garbage));
  }
}

TEST(FuzzTrackerDeserialize, AbsurdBucketCountsRejectedWithoutAllocating) {
  // Format: "trk v1", "<creation> <windows> <landmarks>", then per stream
  // "<total> <first> <last> <ewma> <ewma_t> <sum> <comp>", the landmark
  // pairs, "<windows>" and per window "<total> <last_t> <buckets>".
  const std::string header =
      "trk v1\n0 4 4\n0 -1 -1 0 0 0 0\n0 0 0 0 0 0 0 0\n4\n";
  stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
  // 64 * (ceil(1 / 0.05) + 2) = 1408 buckets is the cap for epsilon 0.05.
  for (const char* count : {"1409", "999999999999999999", "-1"}) {
    EXPECT_FALSE(tracker.Deserialize(header + "0 -1e300 " + count + "\n"))
        << count;
  }
  EXPECT_FALSE(tracker.Deserialize(
      "trk v1\n0 4 4\n0 -1 -1 0 0 0 0\n0 0 0 0 0 0 0 0\n999999999999\n"));
  EXPECT_FALSE(tracker.Deserialize("trk v1\n0 999999999999 4\n"));
  EXPECT_EQ(tracker.Serialize(), stream::CascadeTracker(0.0, stream::TrackerConfig{})
                                     .Serialize());
}

// A window whose last time runs ahead of its stream's once passed the
// parser and made the next Observe abort in the histogram's ordering
// check; windows now take their last time from the stream, and a blob
// that disagrees is rejected.
TEST(FuzzTrackerDeserialize, TamperedWindowHeaderRejected) {
  stream::CascadeTracker source(0.0, stream::TrackerConfig{});
  for (const double t : {10.0, 20.0, 30.0}) {
    source.Observe(stream::EngagementType::kView, t);
  }
  std::string blob = source.Serialize();
  const size_t at = blob.find("\n3 30 3\n");
  ASSERT_NE(at, std::string::npos);
  blob.replace(at, 8, "\n3 1000000000 3\n");
  stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
  EXPECT_FALSE(tracker.Deserialize(blob));
  DriveForward(&tracker);
}

// dgim::Add finds an over-full run from the invariant it keeps (sizes
// powers of two, non-increasing toward newer buckets, at most
// max_per_size of each), so a restore rejects windows that break it even
// when their times and totals are consistent.
TEST(FuzzTrackerDeserialize, BucketsAddCannotProduceRejected) {
  stream::CascadeTracker source(0.0, stream::TrackerConfig{});
  for (const double t : {10.0, 20.0, 30.0}) {
    source.Observe(stream::EngagementType::kView, t);
  }
  const std::string blob = source.Serialize();
  const std::string window = "\n3 30 3\n10 1\n20 1\n30 1\n";
  const size_t at = blob.find(window);
  ASSERT_NE(at, std::string::npos);
  for (const char* tampered : {"\n3 30 2\n20 1\n30 2\n",   // sizes grow
                               "\n3 30 1\n30 3\n"}) {        // size 3
    std::string bad = blob;
    bad.replace(at, window.size(), tampered);
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    EXPECT_FALSE(tracker.Deserialize(bad)) << tampered;
  }
}

}  // namespace
}  // namespace horizon
