// Fuzz-style robustness tests (seeded, deterministic, no third-party
// fuzzing dependency) for the untrusted deserialization entry points:
// GbdtRegressor::Deserialize, HawkesPredictor::Deserialize and
// CascadeTracker::Deserialize.  Truncated, bit-flipped, and garbage inputs
// must return false -- never crash, hang, overflow, or make later
// Predict / Observe / Snapshot calls unsafe.  The CI runs this binary
// under ASan+UBSan and standalone UBSan (its "durability" label).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/text_codec.h"
#include "common/units.h"
#include "core/hawkes_predictor.h"
#include "gbdt/block_forest.h"
#include "gbdt/gbdt.h"
#include "reference_forest.h"
#include "reference_tracker_codec.h"
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

/// `hwk v1` text with one reference horizon (1 day), the count forest's
/// blob and then the alpha forest's.
std::string HawkesText(const std::string& count_blob, const std::string& alpha_blob) {
  std::string out = "hwk v1\n1 geo 1e-8 0.01\n86400\n";
  for (const std::string* blob : {&count_blob, &alpha_blob}) {
    out += std::to_string(blob->size()) + "\n" + *blob;
  }
  return out;
}

// Every forest walks the one row the extractor writes, so a model whose
// count forest declares a wider row than its alpha forest -- here 5,000
// features with a split on feature 4,000, against the alpha forest's 4 --
// would read past that row on its first query.  Deserialize refuses it
// and leaves the model as it was; the same forests at one width load.
TEST(FuzzHawkesDeserialize, ForestsOfDifferentWidthsRejected) {
  using gbdt::reference::GbdtText;
  std::vector<gbdt::RegressionTree> wide(1);
  {
    std::vector<gbdt::TreeNode> nodes(3);
    nodes[0] = {4000, 0.5f, 1, 2, 0.0};
    nodes[1] = {-1, 0.0f, -1, -1, 1.0};
    nodes[2] = {-1, 0.0f, -1, -1, 2.0};
    wide[0] = gbdt::RegressionTree(std::move(nodes));
  }
  const std::vector<gbdt::RegressionTree> none;
  core::HawkesPredictor model = TrainSmallPredictor();
  const std::string before = model.Serialize();
  EXPECT_FALSE(model.Deserialize(
      HawkesText(GbdtText(wide, 5000, 0.1, 0.1), GbdtText(none, 4, 1e-5, 0.1))));
  EXPECT_FALSE(model.Deserialize(
      HawkesText(GbdtText(none, 4, 0.1, 0.1), GbdtText(wide, 5000, 1e-5, 0.1))));
  EXPECT_EQ(model.Serialize(), before);
  EXPECT_EQ(model.num_features(), 4u);

  ASSERT_TRUE(model.Deserialize(
      HawkesText(GbdtText(wide, 5000, 0.1, 0.1), GbdtText(none, 5000, 1e-5, 0.1))));
  EXPECT_EQ(model.num_features(), 5000u);
}

// -- The model codec against the iostream writer ------------------------

/// A finite double from random bits: every exponent, subnormals, -0.
double RandomFiniteDouble(Rng* rng) {
  for (;;) {
    const double value = std::bit_cast<double>(rng->Next());
    if (std::isfinite(value)) return value;
  }
}

/// A finite float from random bits.
float RandomFiniteFloat(Rng* rng) {
  for (;;) {
    const float value = std::bit_cast<float>(static_cast<uint32_t>(rng->Next()));
    if (std::isfinite(value)) return value;
  }
}

/// A random tree Deserialize accepts: nodes numbered breadth first (every
/// child after its parent), at most gbdt::BlockForest::kMaxBlockedDepth
/// deep, with random features below `num_features`, thresholds and leaf
/// values.
gbdt::RegressionTree RandomTree(Rng* rng, size_t num_features) {
  std::vector<gbdt::TreeNode> nodes(1);
  std::vector<int> depth(1, 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (depth[i] < gbdt::BlockForest::kMaxBlockedDepth && nodes.size() < 64 &&
        rng->Bernoulli(0.6)) {
      nodes[i].feature = static_cast<int32_t>(rng->UniformInt(num_features));
      nodes[i].threshold = RandomFiniteFloat(rng);
      nodes[i].left = static_cast<int32_t>(nodes.size());
      nodes[i].right = static_cast<int32_t>(nodes.size() + 1);
      nodes.resize(nodes.size() + 2);
      depth.resize(nodes.size(), depth[i] + 1);
    } else {
      nodes[i].value = RandomFiniteDouble(rng);
    }
  }
  return gbdt::RegressionTree(std::move(nodes));
}

/// A random row width: half the time at most 8, else up to 2^20.
size_t RandomNumFeatures(Rng* rng) {
  return 1 + rng->UniformInt(rng->Bernoulli(0.5) ? 8 : 1u << 20);
}

/// The `gbdt v1` text of a random ensemble over rows of `num_features`, as
/// the iostream writer wrote it.
std::string RandomGbdtText(Rng* rng, size_t num_features) {
  std::vector<gbdt::RegressionTree> trees(rng->UniformInt(6));
  for (auto& tree : trees) tree = RandomTree(rng, num_features);
  double learning_rate = 0.0;
  while (!(learning_rate > 0.0)) learning_rate = std::abs(RandomFiniteDouble(rng));
  return gbdt::reference::GbdtText(trees, num_features, RandomFiniteDouble(rng),
                                   learning_rate);
}

// Serialize writes the bytes the iostream writer wrote, and Deserialize
// reads all it wrote: every ensemble the old writer's text describes --
// thresholds and leaf values of every magnitude, subnormal and -0
// included -- reads back and writes out byte for byte.
TEST(FuzzModelCodec, GbdtTextRoundTripsByteForByte) {
  Rng rng(0xC0DEC101);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = RandomGbdtText(&rng, RandomNumFeatures(&rng));
    gbdt::GbdtRegressor model;
    ASSERT_TRUE(model.Deserialize(text)) << text;
    EXPECT_EQ(model.Serialize(), text);
  }
}

TEST(FuzzModelCodec, HwkTextRoundTripsByteForByte) {
  Rng rng(0xC0DEC102);
  for (int trial = 0; trial < 100; ++trial) {
    // The alpha bounds around strictly increasing positive reference
    // horizons.
    std::vector<double> values(3 + rng.UniformInt(4));
    for (double& v : values) v = std::abs(RandomFiniteDouble(&rng));
    std::sort(values.begin(), values.end());
    if (values[0] == 0.0 ||
        std::adjacent_find(values.begin(), values.end()) != values.end()) {
      continue;
    }
    const std::vector<double> refs(values.begin() + 1, values.end() - 1);
    std::ostringstream os;
    os.precision(17);
    os << "hwk v1\n"
       << refs.size() << " " << (rng.Bernoulli(0.5) ? "geo" : "arith") << " "
       << values.front() << " " << values.back() << "\n";
    for (const double ref : refs) os << ref << " ";
    os << "\n";
    // The forests of one model read rows of one width.
    const size_t num_features = RandomNumFeatures(&rng);
    for (size_t i = 0; i <= refs.size(); ++i) {
      const std::string blob = RandomGbdtText(&rng, num_features);
      os << blob.size() << "\n" << blob;
    }
    const std::string text = os.str();
    core::HawkesPredictor model;
    ASSERT_TRUE(model.Deserialize(text)) << text;
    EXPECT_EQ(model.Serialize(), text);
  }
}

// One text per input class text::Reader rejects (common/text_codec.h
// lists them), each a trained blob with one token changed.  Each is
// refused, leaving the model untrained.  The iostream parsers read every
// gbdt case, and the hwk cases whose header values still pass its checks
// ("2geo", "+2", a blob's byte count fused to the blob).
TEST(FuzzModelCodec, NewlyRejectedInputClasses) {
  const std::string gbdt_blob = TrainSmallGbdt().Serialize();
  const std::string hwk_blob = TrainSmallPredictor().Serialize();
  // "gbdt v1\n<features> <base> <lr> <trees>\n...": the header's tokens.
  const size_t header_end = gbdt_blob.find('\n', 8);
  std::vector<std::string> header;
  {
    std::istringstream is(gbdt_blob.substr(8, header_end - 8));
    for (std::string token; is >> token;) header.push_back(token);
  }
  ASSERT_EQ(header.size(), 4u);
  const auto with_header = [&](size_t token, const std::string& value) {
    std::vector<std::string> edited = header;
    edited[token] = value;
    return "gbdt v1\n" + edited[0] + " " + edited[1] + " " + edited[2] + " " +
           edited[3] + gbdt_blob.substr(header_end);
  };
  const std::string hwk_head = "hwk v1\n2 geo ";
  ASSERT_EQ(hwk_blob.rfind(hwk_head, 0), 0u);
  // A leaf's line: "-1 0 -1 -1 <value>".
  const size_t leaf = gbdt_blob.find("\n-1 0 -1 -1 ");
  ASSERT_NE(leaf, std::string::npos);
  const std::string gbdt_cases[] = {
      // A number running into the next token, or into a hex-float tail.
      gbdt_blob.substr(0, leaf) + "\n-1 0-1 -1 " + gbdt_blob.substr(leaf + 12),
      gbdt_blob.substr(0, gbdt_blob.size() - 1) + "x1p3\n",
      with_header(0, "+" + header[0]),                // a leading '+'
      with_header(3, "-0"),                           // '-' in an unsigned field
      with_header(1, "1e-400"),                       // underflow to zero
  };
  for (const std::string& text : gbdt_cases) {
    gbdt::GbdtRegressor model;
    EXPECT_FALSE(model.Deserialize(text)) << text.substr(0, 80);
    EXPECT_FALSE(model.trained());
  }
  const std::string hwk_cases[] = {
      "hwk v1\n2geo " + hwk_blob.substr(hwk_head.size()),
      "hwk v1\n+2 geo " + hwk_blob.substr(hwk_head.size()),
      "hwk v1\n-2 geo " + hwk_blob.substr(hwk_head.size()),
      hwk_head + "1e-400 " + hwk_blob.substr(hwk_blob.find(' ', hwk_head.size()) + 1),
      // A forest's blob whose count runs into its first byte.
      [&] {
        std::string text = hwk_blob;
        const size_t blob = text.find("\ngbdt v1");
        text.replace(blob, 1, "x");
        return text;
      }(),
  };
  for (const std::string& text : hwk_cases) {
    core::HawkesPredictor model;
    EXPECT_FALSE(model.Deserialize(text)) << text.substr(0, 80);
    EXPECT_FALSE(model.trained());
  }
  // Whitespace of every kind between tokens reads alike.
  std::string spaced = gbdt_blob;
  std::replace(spaced.begin(), spaced.begin() + static_cast<std::ptrdiff_t>(header_end),
               ' ', '\t');
  gbdt::GbdtRegressor model;
  ASSERT_TRUE(model.Deserialize(spaced));
  EXPECT_EQ(model.Serialize(), gbdt_blob);
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
// stream of 2^63 events at age 10, whose windows each hold one such
// bucket, restores and writes itself back byte for byte.
TEST(FuzzTrackerDeserialize, LargestBucketRoundTrips) {
  const uint64_t n = uint64_t{1} << 63;
  const stream::TrackerConfig config;
  std::ostringstream blob;
  blob.precision(17);
  blob << "trk v2\n0 " << config.window_lengths.size() << " "
       << config.landmark_ages.size() << "\n";
  blob << n << " 10 10 " << 1.0 / config.ewma_tau << " " << 10.0 * static_cast<double>(n)
       << " 0";
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) blob << " 0";
  blob << "\n";
  for (size_t i = 0; i < config.window_lengths.size(); ++i) blob << "1\n10 " << n << "\n";
  blob << "0\n0\n0\n";  // the other three streams are empty

  stream::CascadeTracker restored(0.0, config);
  ASSERT_TRUE(restored.Deserialize(blob.str())) << blob.str();
  EXPECT_EQ(restored.Serialize(), blob.str());
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
    EXPECT_FALSE(tracker.Deserialize("trk v2\n" + garbage));
  }
}

TEST(FuzzTrackerDeserialize, AbsurdBucketCountsRejectedWithoutAllocating) {
  // Format: "trk v2", "<creation> <windows> <landmarks>", then per stream
  // its total, and for a non-empty one "<first> <last> <ewma> <sum>
  // <comp>" and a count per landmark on the same line, then per window
  // "<buckets>" and the buckets.  One view at age 0:
  const std::string header = "trk v2\n0 4 4\n1 0 0 0 0 0 0 0 0 0\n";
  stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
  // 64 * (ceil(1 / 0.05) + 2) = 1408 buckets is the cap for epsilon 0.05.
  for (const char* count : {"1409", "999999999999999999", "-1"}) {
    EXPECT_FALSE(tracker.Deserialize(header + count + "\n")) << count;
  }
  EXPECT_FALSE(tracker.Deserialize("trk v2\n0 999999999999 4\n"));
  EXPECT_EQ(tracker.Serialize(), stream::CascadeTracker(0.0, stream::TrackerConfig{})
                                     .Serialize());
}

// A window's header is its bucket count.  One more or one fewer than the
// buckets that follow, or more than a window holds, shifts every later
// token onto another field, and the blob is rejected; the tracker it was
// read into still serves.
TEST(FuzzTrackerDeserialize, TamperedWindowHeaderRejected) {
  stream::CascadeTracker source(0.0, stream::TrackerConfig{});
  for (const double t : {10.0, 20.0, 30.0}) {
    source.Observe(stream::EngagementType::kView, t);
  }
  const std::string blob = source.Serialize();
  const std::string window = "\n3\n10 1\n20 1\n30 1\n";
  const size_t at = blob.find(window);
  ASSERT_NE(at, std::string::npos);
  for (const char* count : {"2", "4", "1409"}) {
    std::string bad = blob;
    bad.replace(at + 1, 1, count);
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    EXPECT_FALSE(tracker.Deserialize(bad)) << count;
    DriveForward(&tracker);
  }
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
  const std::string window = "\n3\n10 1\n20 1\n30 1\n";
  const size_t at = blob.find(window);
  ASSERT_NE(at, std::string::npos);
  for (const char* tampered : {"\n2\n20 1\n30 2\n",   // sizes grow
                               "\n1\n30 3\n"}) {        // size 3
    std::string bad = blob;
    bad.replace(at, window.size(), tampered);
    stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
    EXPECT_FALSE(tracker.Deserialize(bad)) << tampered;
  }
}

// --- The tracker codec against an iostream codec of the same format -----
//
// reference_tracker_codec.h writes and parses `trk v2` through iostreams,
// with no code of the library.  The writer must match it byte for byte;
// the parser must reject everything it rejects, and read everything else
// it reads to the same values, except for the input classes text::Reader
// lists (common/text_codec.h), which it rejects and operator>> reads:
//   * kNoSeparator: a number that runs into the next token ("5-3",
//     "0x1p3", or a token glued to the end of the blob, "1J"), which
//     operator>> splits;
//   * kLeadingPlus: "+5";
//   * kMinusInUnsigned: "-0", or "-1", which operator>> reads as 2^64 - 1;
//   * kUnderflow: a decimal number below the smallest subnormal, which
//     operator>> reads as 0.
// "inf", "nan" and "infinity" both parsers reject; a hex float is a
// kNoSeparator case ("0" then "x1p3").

namespace ref = stream::reference;

/// Why the text_codec parser may reject a blob the iostream one reads.
enum class NewlyRejected { kNone, kNoSeparator, kLeadingPlus, kMinusInUnsigned, kUnderflow };

/// The first token of `tokens` (as ref::Read took them from `text`) in one
/// of the classes only the text_codec parser rejects.
NewlyRejected Classify(const std::string& text, const std::vector<ref::Token>& tokens) {
  for (const ref::Token& t : tokens) {
    if (t.kind == ref::FieldKind::kWord) continue;
    const std::string_view token(text.data() + t.begin, t.end - t.begin);
    if (token.front() == '+') return NewlyRejected::kLeadingPlus;
    if (t.kind == ref::FieldKind::kUnsigned && token.front() == '-') {
      return NewlyRejected::kMinusInUnsigned;
    }
    if (t.end < text.size() && !text::IsSpace(text[t.end])) {
      return NewlyRejected::kNoSeparator;
    }
    double value = 0.0;
    if (t.kind == ref::FieldKind::kFloating &&
        std::from_chars(token.data(), token.data() + token.size(), value).ec ==
            std::errc::result_out_of_range) {
      return NewlyRejected::kUnderflow;
    }
  }
  return NewlyRejected::kNone;
}

/// A tracker layout and a state in it that the iostream parser accepts.
struct RandomTracker {
  stream::TrackerConfig config;
  ref::TrackerText text;
};

/// A random finite double of magnitude class `scale`, with a full
/// mantissa: 0 subnormal, 1 ordinary, 2 near 1e300.
double RandomMagnitude(Rng* rng, int scale) {
  static constexpr int kLowExponent[] = {-1074, -30, 990};
  static constexpr int kExponentSpan[] = {50, 60, 20};
  const int e = kLowExponent[scale] + static_cast<int>(rng->UniformInt(kExponentSpan[scale]));
  return std::ldexp(1.0 + rng->Uniform(), e);
}

/// A random layout (1-8 windows, 0-8 landmarks, epsilon 1 to 0.01) and a
/// random state in it: each stream empty or not; times subnormal,
/// ordinary or near 1e300; totals up to 2^64 - 1; windows with no bucket
/// or up to 40, sizes up to 2^63; landmarks pending, done with a count,
/// and done with none.
RandomTracker MakeRandomTracker(Rng* rng) {
  static constexpr double kEpsilons[] = {1.0, 0.5, 0.1, 0.05, 0.01};
  static constexpr double kTaus[] = {3600.0, 1.0, 1e-3, 86400.0};
  RandomTracker r;
  const int scale = static_cast<int>(rng->UniformInt(3));
  r.config.window_lengths.resize(1 + rng->UniformInt(stream::kMaxTrackerLayout));
  for (double& w : r.config.window_lengths) w = rng->Uniform(1.0, 1e6);
  r.config.landmark_ages.resize(rng->UniformInt(stream::kMaxTrackerLayout + 1));
  for (double& a : r.config.landmark_ages) a = RandomMagnitude(rng, scale);
  r.config.epsilon = kEpsilons[rng->UniformInt(5)];
  r.config.ewma_tau = kTaus[rng->UniformInt(4)];
  const size_t max_per_size = stream::dgim::MaxPerSize(r.config.epsilon);
  r.text.creation_time = (rng->Bernoulli(0.5) ? -1.0 : 1.0) *
                         RandomMagnitude(rng, static_cast<int>(rng->UniformInt(3)));
  for (ref::StreamText& s : r.text.streams) {
    if (rng->Bernoulli(0.35)) continue;  // an empty stream
    s.landmarks.assign(r.config.landmark_ages.size(), 0);
    s.windows.assign(r.config.window_lengths.size(), {});
    // Event ages at this scale, sorted: the first and last, and the
    // candidates for bucket times.
    std::vector<double> ages(2 + rng->UniformInt(60));
    for (double& a : ages) a = RandomMagnitude(rng, scale);
    std::sort(ages.begin(), ages.end());
    s.first_age = ages.front();
    s.last_age = ages.back();
    switch (rng->UniformInt(3)) {
      case 0: s.total = 1 + rng->UniformInt(50); break;
      case 1: s.total = 1 + rng->UniformInt(uint64_t{1} << 40); break;
      default: s.total = (uint64_t{1} << 63) + rng->UniformInt(uint64_t{1} << 63); break;
    }
    // The age sum is about total * last_age, so that stays finite.
    while (!std::isfinite(2.0 * static_cast<double>(s.total) * s.last_age)) {
      s.total = 1 + rng->UniformInt(1000);
    }
    if (s.total == 1) s.first_age = s.last_age;
    const double total = static_cast<double>(s.total);
    const double slack = 1e-9 * total * s.last_age;
    s.ewma_rate = rng->Bernoulli(0.2) ? (rng->Bernoulli(0.5) ? 0.0 : -0.0)
                                      : rng->Uniform() * total / r.config.ewma_tau;
    s.age_sum = total * ages[rng->UniformInt(ages.size())];
    if (s.total == 1) s.age_sum = s.first_age;
    s.age_comp = rng->Bernoulli(0.3) ? -0.0 : rng->Uniform(-1.0, 1.0) * slack;
    for (size_t j = 0; j < s.landmarks.size(); ++j) {
      const double age = r.config.landmark_ages[j];
      if (s.last_age <= age) continue;  // pending: 0
      s.landmarks[j] = s.first_age <= age ? 1 + rng->UniformInt(s.total - 1) : 0;
    }
    for (ref::WindowText& w : s.windows) {
      // Sizes non-increasing toward newer buckets, at most max_per_size
      // of each, summing to at most the total; times sorted.
      uint64_t left = s.total;
      int log2 = std::min<int>(63, std::bit_width(left) - 1);
      if (rng->Bernoulli(0.5)) log2 = static_cast<int>(rng->UniformInt(log2 + 1));
      size_t run = 0;
      std::vector<double> times;
      const size_t buckets = rng->UniformInt(41);
      while (times.size() < buckets && log2 >= 0) {
        const uint64_t size = uint64_t{1} << log2;
        if (size > left || run == max_per_size || rng->Bernoulli(0.2)) {
          --log2;
          run = 0;
          continue;
        }
        w.push_back({0.0, size});
        left -= size;
        ++run;
        times.push_back(ages[rng->UniformInt(ages.size())]);
      }
      std::sort(times.begin(), times.end());
      for (size_t b = 0; b < times.size(); ++b) w[b].first = times[b];
    }
  }
  return r;
}

TEST(FuzzTrackerCodec, WriterIsByteIdenticalToTheIostreamWriter) {
  Rng rng(0xC0DEC001);
  size_t empty_streams = 0, big_buckets = 0, pending = 0, counted = 0, uncounted = 0;
  std::array<size_t, 3> scales{};
  for (int trial = 0; trial < 1500; ++trial) {
    const RandomTracker r = MakeRandomTracker(&rng);
    const std::string want = ref::Write(r.text, r.config);
    ref::TrackerText read;
    ASSERT_TRUE(ref::Read(want, r.config, &read)) << "generated an invalid state:\n" << want;
    stream::CascadeTracker tracker(0.0, r.config);
    ASSERT_TRUE(tracker.Deserialize(want)) << want;
    std::string got = "prefix\n";
    tracker.SerializeTo(&got);
    ASSERT_EQ(got, "prefix\n" + want);
    EXPECT_EQ(tracker.Serialize(), want);
    EXPECT_LE(want.size(), tracker.SerializedBytesBound());
    for (const ref::StreamText& s : r.text.streams) {
      if (s.total == 0) {
        ++empty_streams;
        continue;
      }
      ++scales[s.last_age < 1e-300 ? 0 : s.last_age > 1e290 ? 2 : 1];
      for (size_t j = 0; j < s.landmarks.size(); ++j) {
        ++(s.last_age <= r.config.landmark_ages[j] ? pending
           : s.landmarks[j] > 0                    ? counted
                                                   : uncounted);
      }
      for (const ref::WindowText& w : s.windows) {
        for (const auto& bucket : w) big_buckets += bucket.second == uint64_t{1} << 63;
      }
    }
  }
  EXPECT_GT(empty_streams, 100u);
  EXPECT_GT(big_buckets, 100u);
  for (const size_t streams : scales) EXPECT_GT(streams, 100u);
  EXPECT_GT(pending, 100u);
  EXPECT_GT(counted, 100u);
  EXPECT_GT(uncounted, 100u);
  SUCCEED() << empty_streams << " empty streams, " << big_buckets
            << " buckets of 2^63 events, landmarks " << pending << " pending, "
            << counted << " done with a count, " << uncounted << " done with none";
}

// Trackers that took their events through Observe write what the
// iostream writer writes for the values their blobs hold.
TEST(FuzzTrackerCodec, ObservedTrackersWriteAsTheIostreamWriter) {
  const stream::TrackerConfig config;
  std::vector<stream::CascadeTracker> trackers = {BusyTracker(),
                                                  stream::CascadeTracker(-2.5, config)};
  Rng rng(0xC0DEC002);
  for (int i = 0; i < 50; ++i) {
    stream::CascadeTracker tracker(rng.Uniform(0.0, 1e9), config);
    double t = tracker.creation_time();
    for (int e = static_cast<int>(rng.UniformInt(300)); e > 0; --e) {
      t += rng.Exponential(1.0 / 120.0);
      tracker.Observe(static_cast<stream::EngagementType>(rng.UniformInt(4)), t);
    }
    trackers.push_back(std::move(tracker));
  }
  for (const stream::CascadeTracker& tracker : trackers) {
    const std::string blob = tracker.Serialize();
    ref::TrackerText read;
    ASSERT_TRUE(ref::Read(blob, config, &read)) << blob;
    EXPECT_EQ(ref::Write(read, config), blob);
  }
}

/// Runs both parsers on `text` and checks the text_codec one against the
/// iostream one: it rejects what the iostream one rejects; when the
/// iostream one reads the blob, it reads it to the same values, or
/// rejects it for one of the listed classes.  Counts the outcomes.
struct ParserDiff {
  explicit ParserDiff(stream::TrackerConfig layout) : config(std::move(layout)) {}

  void Check(const std::string& text) {
    ref::TrackerText read;
    std::vector<ref::Token> tokens;
    const bool old_ok = ref::Read(text, config, &read, &tokens);
    stream::CascadeTracker tracker(0.0, config);
    const bool new_ok = tracker.Deserialize(text);
    if (!old_ok) {
      EXPECT_FALSE(new_ok) << "the iostream parser rejects this blob:\n" << text;
      ++both_reject;
      return;
    }
    const NewlyRejected why = Classify(text, tokens);
    if (!new_ok) {
      EXPECT_NE(why, NewlyRejected::kNone) << "only the text_codec parser rejects:\n"
                                           << text;
      ++newly_rejected[static_cast<int>(why)];
      return;
    }
    EXPECT_EQ(why, NewlyRejected::kNone) << text;
    EXPECT_EQ(tracker.Serialize(), ref::Write(read, config)) << text;
    ++both_accept;
  }

  stream::TrackerConfig config;
  size_t both_reject = 0, both_accept = 0;
  std::array<size_t, 5> newly_rejected{};
};

/// The whitespace-separated tokens of `text`.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream is(text);
  for (std::string token; is >> token;) tokens.push_back(token);
  return tokens;
}

TEST(FuzzTrackerCodec, ParserRejectsWhatTheIostreamParserRejects) {
  // A busy tracker, and one with a few views and three empty streams.
  stream::CascadeTracker sparse(0.0, stream::TrackerConfig{});
  for (const double t : {10.0, 20.0, 30.0}) sparse.Observe(stream::EngagementType::kView, t);
  // Extreme but well-formed values, and each class the parsers treat
  // differently, swapped in for whole tokens; tokens joined by every kind
  // of whitespace, and now and then by none.
  const std::vector<std::string> values = {
      "0", "1", "-1", "2", "3", "64", "1409", "1e-300", "-1e300", "1e300",
      "1.7976931348623157e308", "18446744073709551615", "9223372036854775808",
      "-0", "+0", "+1", "0.5", "86400", "1000", "1e-400", "4.9406564584124654e-324",
      "inf", "-inf", "nan", "infinity", "0x10", "0x1p3", "1e", "1.5.5", "5-3", ".5",
      "1.", "-.5", "007", "1E+2"};
  const char kSeparators[] = {' ', '\n', '\t', '\v', '\f', '\r'};
  ParserDiff diff{stream::TrackerConfig{}};
  Rng rng(0xC0DEC003);
  for (const std::string& blob : {BusyTracker().Serialize(), sparse.Serialize()}) {
    for (size_t len = 0; len <= blob.size();
         len = (len < 64 || len + 64 >= blob.size()) ? len + 1 : len + 7) {
      diff.Check(blob.substr(0, len));
    }
    for (int trial = 0; trial < 3000; ++trial) {
      std::string mutated = blob;
      const int flips = 1 + static_cast<int>(rng.UniformInt(3));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = rng.UniformInt(mutated.size());
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.UniformInt(8)));
      }
      diff.Check(mutated);
    }
    const std::vector<std::string> tokens = Tokenize(blob);
    for (int trial = 0; trial < 3000; ++trial) {
      std::vector<std::string> mutated = tokens;
      const int swaps = 1 + static_cast<int>(rng.UniformInt(2));
      for (int k = 0; k < swaps; ++k) {
        mutated[2 + rng.UniformInt(mutated.size() - 2)] = values[rng.UniformInt(values.size())];
      }
      std::string text;
      for (const std::string& token : mutated) {
        text += token;
        if (!rng.Bernoulli(0.001)) text += kSeparators[rng.UniformInt(6)];
      }
      diff.Check(text);
    }
  }
  // Blobs of random layouts, bit-flipped.
  for (int trial = 0; trial < 100; ++trial) {
    const RandomTracker r = MakeRandomTracker(&rng);
    ParserDiff random_layout(r.config);
    const std::string good = ref::Write(r.text, r.config);
    random_layout.Check(good);
    for (int k = 0; k < 20; ++k) {
      std::string mutated = good;
      const size_t pos = rng.UniformInt(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.UniformInt(8)));
      random_layout.Check(mutated);
    }
    diff.both_accept += random_layout.both_accept;
    diff.both_reject += random_layout.both_reject;
    for (int c = 0; c < 5; ++c) diff.newly_rejected[c] += random_layout.newly_rejected[c];
  }
  EXPECT_GT(diff.both_accept, 500u);
  EXPECT_GT(diff.both_reject, 5000u);
  for (const NewlyRejected why : {NewlyRejected::kNoSeparator, NewlyRejected::kLeadingPlus,
                                  NewlyRejected::kMinusInUnsigned,
                                  NewlyRejected::kUnderflow}) {
    EXPECT_GT(diff.newly_rejected[static_cast<int>(why)], 0u) << static_cast<int>(why);
  }
  SUCCEED() << diff.both_accept << " read by both, " << diff.both_reject
            << " rejected by both; newly rejected: " << diff.newly_rejected[1]
            << " no separator, " << diff.newly_rejected[2] << " leading +, "
            << diff.newly_rejected[3] << " - in unsigned, " << diff.newly_rejected[4]
            << " underflow";
}

// One blob per input class, each a well-formed blob with one token
// changed.  The iostream parser reads every one of them; the text_codec
// one rejects the four listed classes and reads the rest to the same
// values.
TEST(FuzzTrackerCodec, NewlyRejectedInputClasses) {
  const stream::TrackerConfig config;
  stream::CascadeTracker source(0.0, config);
  for (const double t : {10.0, 20.0, 30.0}) source.Observe(stream::EngagementType::kView, t);
  const std::string blob = source.Serialize();
  // Replaces the first `from` of the blob with `to`.
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string text = blob;
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
  };
  // The view stream's scalars and landmarks, its first window, and the
  // empty share stream after its last window.
  const std::string views = "\n3 10 30 0.00083102386796723451 60 0 0 0 0 0\n";
  const std::string window = "\n3\n10 1\n20 1\n30 1\n";
  const std::string shares = "\n30 1\n0\n";
  const struct {
    std::string text;
    NewlyRejected why;
  } cases[] = {
      // The age sum runs into its compensation, "-0".
      {with(views, "\n3 10 30 0.00083102386796723451 60-0 0 0 0 0\n"),
       NewlyRejected::kNoSeparator},
      // The last token, the reaction stream's total of 0, made a hex
      // float "0x1p3", or glued to a letter.
      {blob.substr(0, blob.size() - 1) + "x1p3\n", NewlyRejected::kNoSeparator},
      {blob.substr(0, blob.size() - 1) + "J", NewlyRejected::kNoSeparator},
      {with(window, "\n+3\n10 1\n20 1\n30 1\n"), NewlyRejected::kLeadingPlus},
      {with(window, "\n3\n+10 1\n20 1\n30 1\n"), NewlyRejected::kLeadingPlus},
      {with(shares, "\n30 1\n-0\n"), NewlyRejected::kMinusInUnsigned},
      {with(views, "\n3 10 30 0.00083102386796723451 60 1e-400 0 0 0 0\n"),
       NewlyRejected::kUnderflow},
      // Read alike by both.
      {with(views, "\n3\t10\v30\f0.00083102386796723451\r60 -0 0 0 0 0\n"),
       NewlyRejected::kNone},
      {with(window, "\n3\n1e1 1\n20. 1\n30 01\n"), NewlyRejected::kNone},
  };
  for (const auto& c : cases) {
    ref::TrackerText read;
    std::vector<ref::Token> tokens;
    ASSERT_TRUE(ref::Read(c.text, config, &read, &tokens)) << c.text;
    EXPECT_EQ(Classify(c.text, tokens), c.why) << c.text;
    stream::CascadeTracker tracker(0.0, config);
    EXPECT_EQ(tracker.Deserialize(c.text), c.why == NewlyRejected::kNone) << c.text;
  }
  // "inf", "nan" and hex floats: neither parser reads them.
  for (const char* token : {"inf", "nan", "infinity", "-inf", "0x1e"}) {
    const std::string text =
        with(window, std::string("\n3\n") + token + " 1\n20 1\n30 1\n");
    ref::TrackerText read;
    EXPECT_FALSE(ref::Read(text, config, &read)) << token;
    stream::CascadeTracker tracker(0.0, config);
    EXPECT_FALSE(tracker.Deserialize(text)) << token;
  }
}

}  // namespace
}  // namespace horizon
