#include "stream/cascade_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace horizon::stream {

const char* EngagementTypeName(EngagementType type) {
  switch (type) {
    case EngagementType::kView: return "view";
    case EngagementType::kShare: return "share";
    case EngagementType::kComment: return "comment";
    case EngagementType::kReaction: return "reaction";
  }
  return "unknown";
}

TrackerLayout::TrackerLayout(TrackerConfig tracker_config)
    : config(std::move(tracker_config)),
      max_per_size(dgim::MaxPerSize(config.epsilon)) {
  HORIZON_CHECK(!config.window_lengths.empty());
  HORIZON_CHECK_LE(config.window_lengths.size(), kMaxTrackerLayout);
  HORIZON_CHECK_LE(config.landmark_ages.size(), kMaxTrackerLayout);
  for (const double w : config.window_lengths) HORIZON_CHECK_GT(w, 0.0);
  HORIZON_CHECK_GT(config.ewma_tau, 0.0);
  HORIZON_CHECK(config.epsilon > 0.0 && config.epsilon <= 1.0);
}

namespace {

// A stream's block, for a layout of L landmarks and W windows, is
//   uint64_t     landmark_counts[L];
//   uint32_t     used[W];  // buckets window i holds
//   uint32_t     cap[W];   // buckets window i's region has room for
//   dgim::Bucket buckets[cap[0] + ... + cap[W - 1]];
// with window i's region after those of windows 0 .. i-1.  The header is
// L + W eight-byte words, so the buckets stay 8-byte aligned.
struct BlockView {
  uint64_t* landmarks;
  uint32_t* used;
  uint32_t* cap;
  dgim::Bucket* buckets;
};

/// A full region doubles.  A block whose regions have room for more than
/// kShrinkFactor times the buckets they hold (expiry emptied them) is
/// refitted: every region keeps room for one bucket more than it holds,
/// as at the stream's first event and after a restore.
constexpr uint64_t kRegionGrowth = 2;
constexpr size_t kShrinkFactor = 4;

size_t NumLandmarks(const TrackerLayout& layout) {
  return layout.config.landmark_ages.size();
}
size_t NumWindows(const TrackerLayout& layout) {
  return layout.config.window_lengths.size();
}

BlockView View(std::byte* block, const TrackerLayout& layout) {
  const size_t landmarks = NumLandmarks(layout);
  const size_t windows = NumWindows(layout);
  auto* words = reinterpret_cast<uint64_t*>(block);
  auto* used = reinterpret_cast<uint32_t*>(words + landmarks);
  return {words, used, used + windows,
          reinterpret_cast<dgim::Bucket*>(words + landmarks + windows)};
}

/// The bytes of a block whose regions have room for `capacity` buckets.
size_t BlockBytes(const TrackerLayout& layout, size_t capacity) {
  return sizeof(uint64_t) * (NumLandmarks(layout) + NumWindows(layout)) +
         sizeof(dgim::Bucket) * capacity;
}

size_t BlockBytes(std::byte* block, const TrackerLayout& layout) {
  const BlockView v = View(block, layout);
  size_t capacity = 0;
  for (size_t i = 0; i < NumWindows(layout); ++i) capacity += v.cap[i];
  return BlockBytes(layout, capacity);
}

std::byte* AllocateBlock(size_t bytes) {
  return static_cast<std::byte*>(::operator new(bytes));
}

/// A block whose window i has room for caps[i] buckets and holds
/// `from`'s landmarks and buckets (none, with zero landmarks, when `from`
/// is null).
std::byte* BuildBlock(const TrackerLayout& layout, const uint32_t* caps,
                      std::byte* from) {
  const size_t windows = NumWindows(layout);
  size_t capacity = 0;
  for (size_t i = 0; i < windows; ++i) capacity += caps[i];
  std::byte* block = AllocateBlock(BlockBytes(layout, capacity));
  const BlockView to = View(block, layout);
  std::copy(caps, caps + windows, to.cap);
  if (from == nullptr) {
    std::fill(to.landmarks, to.landmarks + NumLandmarks(layout), uint64_t{0});
    std::fill(to.used, to.used + windows, uint32_t{0});
    return block;
  }
  const BlockView old = View(from, layout);
  std::copy(old.landmarks, old.landmarks + NumLandmarks(layout), to.landmarks);
  std::copy(old.used, old.used + windows, to.used);
  dgim::Bucket* src = old.buckets;
  dgim::Bucket* dst = to.buckets;
  for (size_t i = 0; i < windows; ++i) {
    std::copy(src, src + old.used[i], dst);
    src += old.cap[i];
    dst += caps[i];
  }
  return block;
}

/// Whether landmark `j` of a stream with these events is done: an event
/// past its age has arrived, so its count is final.
bool LandmarkDone(uint64_t total, double last_age, double landmark_age) {
  return total > 0 && last_age > landmark_age;
}

}  // namespace

void CascadeTracker::FreeBlock::operator()(std::byte* block) const noexcept {
  ::operator delete(block);
}

void CascadeTracker::StreamState::Add(double age, const TrackerLayout& layout) {
  HORIZON_CHECK_GE(age, last_age);
  const TrackerConfig& config = layout.config;
  const size_t windows = config.window_lengths.size();
  std::array<uint32_t, kMaxTrackerLayout> caps{};
  if (block == nullptr) {
    caps.fill(1);
    block.reset(BuildBlock(layout, caps.data(), nullptr));
  }
  BlockView v = View(block.get(), layout);
  // dgim::Add needs room for one more bucket in every window; the block
  // is rebuilt once for all full regions.
  bool full = false;
  for (size_t i = 0; i < windows; ++i) {
    caps[i] = v.cap[i];
    if (v.used[i] == v.cap[i]) {
      full = true;
      const uint64_t grown = std::max<uint64_t>(v.cap[i] * kRegionGrowth, 1);
      HORIZON_CHECK_LE(grown, std::numeric_limits<uint32_t>::max());
      caps[i] = static_cast<uint32_t>(grown);
    }
  }
  if (full) {
    block.reset(BuildBlock(layout, caps.data(), block.get()));
    v = View(block.get(), layout);
  }
  // Finalize landmarks that this event's age has passed: their count is the
  // total *before* this event, because the landmark is "events with age <=
  // landmark".
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    if (!LandmarkDone(total, last_age, config.landmark_ages[j]) &&
        age > config.landmark_ages[j]) {
      v.landmarks[j] = total;
    }
  }
  dgim::Bucket* region = v.buckets;
  size_t buckets = 0, room = 0;
  for (size_t i = 0; i < windows; ++i) {
    v.used[i] = static_cast<uint32_t>(dgim::Add(
        region, v.used[i], age, config.window_lengths[i], layout.max_per_size));
    region += v.cap[i];
    buckets += v.used[i];
    room += v.cap[i];
  }
  if (room > kShrinkFactor * buckets + windows) {
    for (size_t i = 0; i < windows; ++i) caps[i] = v.used[i] + 1;
    block.reset(BuildBlock(layout, caps.data(), block.get()));
  }
  // EWMA intensity estimator: decay over the time since the last event,
  // then add the unit impulse 1/tau.  An empty stream's rate is 0, so its
  // decay factor does not matter.
  ewma_rate = ewma_rate * std::exp(-(age - last_age) / config.ewma_tau) +
              1.0 / config.ewma_tau;
  ++total;
  age_sum.Add(age);
  if (first_age < 0.0) first_age = age;
  last_age = age;
}

void CascadeTracker::StreamState::Snapshot(double age, const TrackerLayout& layout,
                                           StreamSnapshot* out) const {
  const TrackerConfig& config = layout.config;
  out->total = total;
  if (block != nullptr) {
    const BlockView v = View(block.get(), layout);
    const dgim::Bucket* region = v.buckets;
    for (size_t i = 0; i < config.window_lengths.size(); ++i) {
      out->window_counts[i] =
          dgim::Count({region, v.used[i]}, age, config.window_lengths[i]);
      out->window_rates[i] =
          static_cast<double>(out->window_counts[i]) / config.window_lengths[i];
      region += v.cap[i];
    }
  }
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    // If the landmark has been passed, report the finalized value; otherwise
    // every event so far happened before the landmark age.
    const bool done = LandmarkDone(total, last_age, config.landmark_ages[j]);
    out->landmark_counts[j] = (done && age > config.landmark_ages[j])
                                  ? View(block.get(), layout).landmarks[j]
                                  : total;
  }
  out->ewma_rate =
      total > 0 ? ewma_rate * std::exp(-(age - last_age) / config.ewma_tau) : 0.0;
  out->mean_event_age =
      total > 0 ? age_sum.value() / static_cast<double>(total) : 0.0;
  out->first_event_age = first_age;
  out->last_event_age = last_age;
}

CascadeTracker::CascadeTracker(double creation_time,
                               std::shared_ptr<const TrackerLayout> layout)
    : layout_(std::move(layout)), creation_time_(creation_time) {
  HORIZON_CHECK(layout_ != nullptr);
}

CascadeTracker::CascadeTracker(double creation_time, const TrackerConfig& config)
    : CascadeTracker(creation_time, std::make_shared<const TrackerLayout>(config)) {}

CascadeTracker::CascadeTracker(const CascadeTracker& other)
    : layout_(other.layout_), creation_time_(other.creation_time_) {
  for (int i = 0; i < kNumEngagementTypes; ++i) {
    const StreamState& from = other.streams_[i];
    StreamState& to = streams_[i];
    if (from.block != nullptr) {
      const size_t bytes = BlockBytes(from.block.get(), *layout_);
      to.block.reset(AllocateBlock(bytes));
      std::copy(from.block.get(), from.block.get() + bytes, to.block.get());
    }
    to.total = from.total;
    to.age_sum = from.age_sum;
    to.first_age = from.first_age;
    to.last_age = from.last_age;
    to.ewma_rate = from.ewma_rate;
  }
}

CascadeTracker& CascadeTracker::operator=(const CascadeTracker& other) {
  if (this != &other) *this = CascadeTracker(other);
  return *this;
}

bool CascadeTracker::Accepts(EngagementType type, double t) const {
  // The same comparisons Observe checks: the window counters require
  // ages non-decreasing per stream.
  return t >= creation_time_ &&
         t - creation_time_ >= streams_[static_cast<int>(type)].last_age;
}

void CascadeTracker::Observe(EngagementType type, double t) {
  HORIZON_CHECK_GE(t, creation_time_);
  streams_[static_cast<int>(type)].Add(t - creation_time_, *layout_);
}

uint64_t CascadeTracker::TotalCount(EngagementType type) const {
  return streams_[static_cast<int>(type)].total;
}

size_t CascadeTracker::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const StreamState& stream : streams_) {
    if (stream.block != nullptr) bytes += BlockBytes(stream.block.get(), *layout_);
  }
  return bytes;
}

namespace {

/// The last time a window of a stream with these events serializes.
double WindowLastTime(uint64_t total, double last_age) {
  return total == 0 ? dgim::kNoEventTime : last_age;
}

/// Whether some sequence of Observe calls leaves a stream with these
/// scalar fields (the EWMA time is the serialized one): an empty stream
/// holds the fresh values; otherwise
/// 0 <= first_age <= last_age = ewma_time, the EWMA rate lies in
/// [0, total / ewma_tau] (each event adds 1/tau, decay only shrinks it),
/// and the age sum in [total * first_age, total * last_age].  The two
/// bounds allow rounding: each EWMA step rounds twice, the Kahan sum is
/// off by a few ulps of its value.  Written so that NaN fails every test.
bool PlausibleScalars(uint64_t total, double first_age, double last_age,
                      double ewma_rate, double ewma_time, double age_sum,
                      double age_comp, double ewma_tau) {
  if (total == 0) {
    return first_age == -1.0 && last_age == -1.0 && ewma_rate == 0.0 &&
           ewma_time == 0.0 && age_sum == 0.0 && age_comp == 0.0;
  }
  const double n = static_cast<double>(total);
  const double rate_slack =
      1.0 + 4.0 * (n + 1.0) * std::numeric_limits<double>::epsilon();
  const double sum_slack = 1e-9 * n * last_age;
  return std::isfinite(last_age) && first_age >= 0.0 && first_age <= last_age &&
         ewma_time == last_age && ewma_rate >= 0.0 &&
         ewma_rate <= n / ewma_tau * rate_slack &&
         age_sum >= n * first_age - sum_slack &&
         age_sum <= n * last_age + sum_slack && std::abs(age_comp) <= sum_slack;
}

/// Whether StreamState::Add leaves a landmark at age `landmark_age` of a
/// stream with these scalars at (count, done).  The landmark is done
/// exactly when an event past it has arrived: total > 0 and last_age >
/// landmark_age.  A done count is the number of events at or before the
/// landmark, so it is 0 when the first event came after it and lies in
/// [1, total - 1] otherwise.  A landmark that is not done counts 0.
bool PlausibleLandmark(uint64_t total, double first_age, double last_age,
                       double landmark_age, uint64_t count, int done) {
  const bool passed = LandmarkDone(total, last_age, landmark_age);
  if (done != (passed ? 1 : 0)) return false;
  if (!passed) return count == 0;
  return first_age <= landmark_age ? count >= 1 && count < total : count == 0;
}

}  // namespace

std::string CascadeTracker::Serialize() const {
  const TrackerConfig& config = layout_->config;
  std::ostringstream os;
  os.precision(17);
  os << "trk v1\n";
  os << creation_time_ << " " << config.window_lengths.size() << " "
     << config.landmark_ages.size() << "\n";
  for (const StreamState& stream : streams_) {
    // An empty stream's EWMA time serializes as 0, a non-empty one's as
    // its last event age; Deserialize checks both.
    os << stream.total << " " << stream.first_age << " " << stream.last_age << " "
       << stream.ewma_rate << " " << (stream.total > 0 ? stream.last_age : 0.0)
       << " " << stream.age_sum.value() << " " << stream.age_sum.compensation()
       << "\n";
    const bool has_block = stream.block != nullptr;
    const BlockView v = has_block ? View(stream.block.get(), *layout_) : BlockView{};
    for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
      os << (has_block ? v.landmarks[j] : 0) << " "
         << (LandmarkDone(stream.total, stream.last_age, config.landmark_ages[j])
                 ? 1
                 : 0)
         << " ";
    }
    os << "\n";
    // The format gives every window a total and last time; they are the
    // stream's, and Deserialize rejects a blob where they differ.
    os << config.window_lengths.size() << "\n";
    const dgim::Bucket* region = v.buckets;
    for (size_t i = 0; i < config.window_lengths.size(); ++i) {
      std::span<const dgim::Bucket> buckets;
      if (has_block) {
        buckets = {region, v.used[i]};
        region += v.cap[i];
      }
      dgim::Write(os, stream.total, WindowLastTime(stream.total, stream.last_age),
                  buckets);
    }
  }
  return os.str();
}

bool CascadeTracker::Deserialize(const std::string& text) {
  const TrackerConfig& config = layout_->config;
  const size_t num_windows = config.window_lengths.size();
  const size_t num_landmarks = config.landmark_ages.size();
  std::istringstream is(text);
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "trk" || version != "v1") return false;
  double creation_time = 0.0;
  size_t blob_windows = 0, blob_landmarks = 0;
  if (!(is >> creation_time >> blob_windows >> blob_landmarks)) return false;
  if (!std::isfinite(creation_time) || blob_windows != num_windows ||
      blob_landmarks != num_landmarks) {
    return false;
  }
  std::array<StreamState, kNumEngagementTypes> streams;
  std::array<std::vector<dgim::Bucket>, kMaxTrackerLayout> windows;
  for (StreamState& stream : streams) {
    double ewma_time = 0.0, sum = 0.0, comp = 0.0;
    if (!(is >> stream.total >> stream.first_age >> stream.last_age >>
          stream.ewma_rate >> ewma_time >> sum >> comp)) {
      return false;
    }
    if (!PlausibleScalars(stream.total, stream.first_age, stream.last_age,
                          stream.ewma_rate, ewma_time, sum, comp,
                          config.ewma_tau)) {
      return false;
    }
    stream.age_sum.Restore(sum, comp);
    std::array<uint64_t, kMaxTrackerLayout> landmarks{};
    for (size_t j = 0; j < num_landmarks; ++j) {
      int done = 0;
      if (!(is >> landmarks[j] >> done) ||
          !PlausibleLandmark(stream.total, stream.first_age, stream.last_age,
                             config.landmark_ages[j], landmarks[j], done)) {
        return false;
      }
    }
    size_t n = 0;
    if (!(is >> n) || n != num_windows) return false;
    // Windows keep no total or last time of their own, so each one the
    // blob carries must be the stream's; dgim::Read has checked its
    // buckets against them.
    const double last_t = WindowLastTime(stream.total, stream.last_age);
    for (size_t i = 0; i < num_windows; ++i) {
      uint64_t window_total = 0;
      double window_last_t = 0.0;
      if (!dgim::Read(is, layout_->max_per_size, &window_total, &window_last_t,
                      &windows[i]) ||
          window_total != stream.total || window_last_t != last_t ||
          windows[i].size() >= std::numeric_limits<uint32_t>::max()) {
        return false;
      }
    }
    // An empty stream has no block: its landmarks count 0 and dgim::Read
    // admits no bucket in its windows.  Otherwise the block is fitted to
    // the buckets read.
    if (stream.total == 0) continue;
    std::array<uint32_t, kMaxTrackerLayout> caps{};
    for (size_t i = 0; i < num_windows; ++i) {
      caps[i] = static_cast<uint32_t>(windows[i].size() + 1);
    }
    stream.block.reset(BuildBlock(*layout_, caps.data(), nullptr));
    const BlockView v = View(stream.block.get(), *layout_);
    std::copy(landmarks.begin(), landmarks.begin() + num_landmarks, v.landmarks);
    dgim::Bucket* region = v.buckets;
    for (size_t i = 0; i < num_windows; ++i) {
      v.used[i] = static_cast<uint32_t>(windows[i].size());
      std::copy(windows[i].begin(), windows[i].end(), region);
      region += caps[i];
    }
  }
  creation_time_ = creation_time;
  streams_ = std::move(streams);
  return true;
}

TrackerSnapshot CascadeTracker::Snapshot(double s) const {
  HORIZON_CHECK_GE(s, creation_time_);
  TrackerSnapshot snap;
  snap.age = s - creation_time_;
  snap.num_windows = layout_->config.window_lengths.size();
  for (int i = 0; i < kNumEngagementTypes; ++i) {
    streams_[i].Snapshot(snap.age, *layout_, &snap.streams[i]);
  }
  return snap;
}

}  // namespace horizon::stream
