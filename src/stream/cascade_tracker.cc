#include "stream/cascade_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/text_codec.h"

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

namespace {

// A stream block keeps its per-window counts in 16 bits (see the block
// layout below); at kMinEpsilon, dgim::MaxPerSize is 1022.
static_assert(dgim::MaxBuckets(1022) <= std::numeric_limits<uint16_t>::max());

/// `epsilon`, checked to lie in [kMinEpsilon, 1] before MaxPerSize
/// divides by it.
double CheckedEpsilon(double epsilon) {
  HORIZON_CHECK(epsilon >= kMinEpsilon && epsilon <= 1.0);
  return epsilon;
}

}  // namespace

TrackerLayout::TrackerLayout(TrackerConfig tracker_config)
    : config(std::move(tracker_config)),
      max_per_size(dgim::MaxPerSize(CheckedEpsilon(config.epsilon))) {
  HORIZON_CHECK(!config.window_lengths.empty());
  HORIZON_CHECK_LE(config.window_lengths.size(), kMaxTrackerLayout);
  HORIZON_CHECK_LE(config.landmark_ages.size(), kMaxTrackerLayout);
  for (const double w : config.window_lengths) HORIZON_CHECK_GT(w, 0.0);
  HORIZON_CHECK_GT(config.ewma_tau, 0.0);
}

namespace {

/// A stream's scalars.  An empty stream has no block and reads
/// kEmptyStream.
struct StreamScalars {
  uint64_t total = 0;
  KahanSum age_sum;
  double first_age = -1.0;
  double last_age = -1.0;
  // Events per second as of the last event, at age last_age.  Landmark
  // j is done (its count final) once last_age passes its age.
  double ewma_rate = 0.0;
};
static_assert(std::is_trivially_copyable_v<StreamScalars>);
const StreamScalars kEmptyStream{};

// A stream's block, for a layout of L landmarks and W windows, is
//   StreamScalars scalars;
//   uint64_t      landmark_counts[L];
//   uint16_t      used[W];  // buckets window i holds
//   uint16_t      cap[W];   // buckets window i's region has room for
//   (padding to a multiple of 8 bytes)
//   double        newest[C];     // C = cap[0] + ... + cap[W - 1]
//   uint8_t       log2_size[C];
// with window i's region of each bucket array after those of windows
// 0 .. i-1.  The scalars are six eight-byte words and the landmarks L
// more; the padding keeps `newest` 8-byte aligned.  The default layout
// (L = W = 4) has a 96-byte header and no padding; a bucket slot costs 9
// bytes.  TrackerLayout's epsilon bound makes every count fit 16 bits.
struct BlockView {
  StreamScalars* scalars;
  uint64_t* landmarks;
  uint16_t* used;
  uint16_t* cap;
  double* newest;
  uint8_t* log2_size;
};

/// A full region grows by half (by one bucket while it holds fewer than
/// two), up to MaxRegion.  A block whose regions have room for more than
/// kShrinkFactor times the buckets they hold (expiry emptied them) is
/// refitted: every region keeps room for one bucket more than it holds,
/// as at the stream's first event and after a restore.
constexpr size_t kShrinkFactor = 2;

size_t NumLandmarks(const TrackerLayout& layout) {
  return layout.config.landmark_ages.size();
}
size_t NumWindows(const TrackerLayout& layout) {
  return layout.config.window_lengths.size();
}

/// Where the per-window counts start: after the scalars and landmarks.
size_t CountsOffset(const TrackerLayout& layout) {
  return sizeof(StreamScalars) + sizeof(uint64_t) * NumLandmarks(layout);
}

/// The bytes before the bucket arrays.
size_t HeaderBytes(const TrackerLayout& layout) {
  const size_t counts = 2 * sizeof(uint16_t) * NumWindows(layout);
  return CountsOffset(layout) + (counts + sizeof(double) - 1) / sizeof(double) *
                                    sizeof(double);
}

uint16_t* Caps(std::byte* block, const TrackerLayout& layout) {
  return reinterpret_cast<uint16_t*>(block + CountsOffset(layout)) + NumWindows(layout);
}

/// The most buckets a region ever needs room for: Add's n + 1 at most,
/// and the most dgim::Read admits.
size_t MaxRegion(const TrackerLayout& layout) {
  return dgim::MaxBuckets(layout.max_per_size);
}

size_t Capacity(const uint16_t* caps, const TrackerLayout& layout) {
  size_t capacity = 0;
  for (size_t i = 0; i < NumWindows(layout); ++i) capacity += caps[i];
  return capacity;
}

BlockView View(std::byte* block, const TrackerLayout& layout) {
  uint16_t* cap = Caps(block, layout);
  auto* newest = reinterpret_cast<double*>(block + HeaderBytes(layout));
  return {reinterpret_cast<StreamScalars*>(block),
          reinterpret_cast<uint64_t*>(block + sizeof(StreamScalars)),
          cap - NumWindows(layout),
          cap,
          newest,
          reinterpret_cast<uint8_t*>(newest + Capacity(cap, layout))};
}

/// The scalars of the stream whose block this is (null: an empty stream).
const StreamScalars& ScalarsOf(std::byte* block) {
  return block != nullptr ? *reinterpret_cast<const StreamScalars*>(block) : kEmptyStream;
}

/// The bytes of a block whose regions have room for `capacity` buckets.
size_t BlockBytes(const TrackerLayout& layout, size_t capacity) {
  return HeaderBytes(layout) + (sizeof(double) + sizeof(uint8_t)) * capacity;
}

size_t BlockBytes(std::byte* block, const TrackerLayout& layout) {
  return BlockBytes(layout, Capacity(Caps(block, layout), layout));
}

std::byte* AllocateBlock(size_t bytes) {
  return static_cast<std::byte*>(::operator new(bytes));
}

/// A block whose window i has room for caps[i] buckets and holds
/// `from`'s scalars, landmarks and buckets (an empty stream's, when
/// `from` is null).
std::byte* BuildBlock(const TrackerLayout& layout, const uint16_t* caps,
                      std::byte* from) {
  const size_t windows = NumWindows(layout);
  std::byte* block = AllocateBlock(BlockBytes(layout, Capacity(caps, layout)));
  std::copy(caps, caps + windows, Caps(block, layout));
  const BlockView to = View(block, layout);
  if (from == nullptr) {
    *to.scalars = kEmptyStream;
    std::fill(to.landmarks, to.landmarks + NumLandmarks(layout), uint64_t{0});
    std::fill(to.used, to.used + windows, uint16_t{0});
    return block;
  }
  const BlockView old = View(from, layout);
  *to.scalars = *old.scalars;
  std::copy(old.landmarks, old.landmarks + NumLandmarks(layout), to.landmarks);
  std::copy(old.used, old.used + windows, to.used);
  size_t src = 0, dst = 0;
  for (size_t i = 0; i < windows; ++i) {
    std::copy(old.newest + src, old.newest + src + old.used[i], to.newest + dst);
    std::copy(old.log2_size + src, old.log2_size + src + old.used[i],
              to.log2_size + dst);
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
  HORIZON_CHECK_GE(age, ScalarsOf(block.get()).last_age);
  const TrackerConfig& config = layout.config;
  const size_t windows = config.window_lengths.size();
  std::array<uint16_t, kMaxTrackerLayout> caps{};
  if (block == nullptr) {
    caps.fill(1);
    block.reset(BuildBlock(layout, caps.data(), nullptr));
  }
  BlockView v = View(block.get(), layout);
  // dgim::Add needs room for one more bucket in every window; the block
  // is rebuilt once for all full regions.  A full region holds at most
  // MaxRegion - 64 buckets (dgim's invariant), so it always has room to
  // grow.
  bool full = false;
  for (size_t i = 0; i < windows; ++i) {
    caps[i] = v.cap[i];
    if (v.used[i] == v.cap[i]) {
      full = true;
      const size_t grown = v.cap[i] + std::max<size_t>(v.cap[i] / 2, 1);
      caps[i] = static_cast<uint16_t>(std::min(grown, MaxRegion(layout)));
    }
  }
  if (full) {
    block.reset(BuildBlock(layout, caps.data(), block.get()));
    v = View(block.get(), layout);
  }
  StreamScalars& s = *v.scalars;
  // Finalize landmarks that this event's age has passed: their count is the
  // total *before* this event, because the landmark is "events with age <=
  // landmark".
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    if (!LandmarkDone(s.total, s.last_age, config.landmark_ages[j]) &&
        age > config.landmark_ages[j]) {
      v.landmarks[j] = s.total;
    }
  }
  // EWMA intensity estimator: decay over the time since the last event,
  // then add the unit impulse 1/tau.  An empty stream's rate is 0, so its
  // decay factor does not matter.
  s.ewma_rate = s.ewma_rate * std::exp(-(age - s.last_age) / config.ewma_tau) +
                1.0 / config.ewma_tau;
  ++s.total;
  s.age_sum.Add(age);
  if (s.first_age < 0.0) s.first_age = age;
  s.last_age = age;
  size_t region = 0, buckets = 0;
  for (size_t i = 0; i < windows; ++i) {
    v.used[i] = static_cast<uint16_t>(
        dgim::Add(v.newest + region, v.log2_size + region, v.used[i], age,
                  config.window_lengths[i], layout.max_per_size));
    region += v.cap[i];
    buckets += v.used[i];
  }
  if (region > kShrinkFactor * buckets + windows) {
    for (size_t i = 0; i < windows; ++i) caps[i] = static_cast<uint16_t>(v.used[i] + 1);
    block.reset(BuildBlock(layout, caps.data(), block.get()));
  }
}

void CascadeTracker::StreamState::Snapshot(double age, const TrackerLayout& layout,
                                           StreamSnapshot* out) const {
  const TrackerConfig& config = layout.config;
  const StreamScalars& s = ScalarsOf(block.get());
  out->total = s.total;
  // A landmark is done only after an event, so only with a block.
  const BlockView v = block != nullptr ? View(block.get(), layout) : BlockView{};
  if (block != nullptr) {
    size_t region = 0;
    for (size_t i = 0; i < config.window_lengths.size(); ++i) {
      out->window_counts[i] =
          dgim::Count({v.newest + region, v.log2_size + region, v.used[i]}, age,
                      config.window_lengths[i]);
      out->window_rates[i] =
          static_cast<double>(out->window_counts[i]) / config.window_lengths[i];
      region += v.cap[i];
    }
  }
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    // If the landmark has been passed, report the finalized value; otherwise
    // every event so far happened before the landmark age.
    const bool done = LandmarkDone(s.total, s.last_age, config.landmark_ages[j]);
    out->landmark_counts[j] =
        (done && age > config.landmark_ages[j]) ? v.landmarks[j] : s.total;
  }
  out->ewma_rate = s.total > 0
                       ? s.ewma_rate * std::exp(-(age - s.last_age) / config.ewma_tau)
                       : 0.0;
  out->mean_event_age =
      s.total > 0 ? s.age_sum.value() / static_cast<double>(s.total) : 0.0;
  out->first_event_age = s.first_age;
  out->last_event_age = s.last_age;
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
    std::byte* from = other.streams_[i].block.get();
    if (from == nullptr) continue;
    const size_t bytes = BlockBytes(from, *layout_);
    streams_[i].block.reset(AllocateBlock(bytes));
    std::copy(from, from + bytes, streams_[i].block.get());
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
         t - creation_time_ >=
             ScalarsOf(streams_[static_cast<int>(type)].block.get()).last_age;
}

bool CascadeTracker::HasEventAfter(double s) const {
  for (const StreamState& stream : streams_) {
    const StreamScalars& scalars = ScalarsOf(stream.block.get());
    if (scalars.total > 0 && s - creation_time_ < scalars.last_age) return true;
  }
  return false;
}

void CascadeTracker::Observe(EngagementType type, double t) {
  HORIZON_CHECK_GE(t, creation_time_);
  streams_[static_cast<int>(type)].Add(t - creation_time_, *layout_);
}

uint64_t CascadeTracker::TotalCount(EngagementType type) const {
  return ScalarsOf(streams_[static_cast<int>(type)].block.get()).total;
}

size_t CascadeTracker::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const StreamState& stream : streams_) {
    if (stream.block != nullptr) bytes += BlockBytes(stream.block.get(), *layout_);
  }
  return bytes;
}

namespace {

/// Whether some sequence of Observe calls leaves a non-empty stream with
/// these scalar fields: 0 <= first_age <= last_age, the EWMA rate in
/// [0, total / ewma_tau] (each event adds 1/tau, decay only shrinks it),
/// and the age sum in [total * first_age, total * last_age].  The two
/// bounds allow rounding: each EWMA step rounds twice, the Kahan sum is
/// off by a few ulps of its value.  Written so that NaN fails every test.
bool PlausibleScalars(uint64_t total, double first_age, double last_age,
                      double ewma_rate, double age_sum, double age_comp,
                      double ewma_tau) {
  const double n = static_cast<double>(total);
  const double rate_slack =
      1.0 + 4.0 * (n + 1.0) * std::numeric_limits<double>::epsilon();
  const double sum_slack = 1e-9 * n * last_age;
  return std::isfinite(last_age) && first_age >= 0.0 && first_age <= last_age &&
         ewma_rate >= 0.0 && ewma_rate <= n / ewma_tau * rate_slack &&
         age_sum >= n * first_age - sum_slack &&
         age_sum <= n * last_age + sum_slack && std::abs(age_comp) <= sum_slack;
}

/// Whether StreamState::Add leaves a landmark at age `landmark_age` of a
/// non-empty stream with these scalars at `count`.  The landmark is done
/// exactly when an event past it has arrived (LandmarkDone).  A done
/// count is the number of events at or before the landmark, so it is 0
/// when the first event came after it and lies in [1, total - 1]
/// otherwise.  A landmark that is not done counts 0.
bool PlausibleLandmark(uint64_t total, double first_age, double last_age,
                       double landmark_age, uint64_t count) {
  if (!LandmarkDone(total, last_age, landmark_age)) return count == 0;
  return first_age <= landmark_age ? count >= 1 && count < total : count == 0;
}

}  // namespace

void CascadeTracker::SerializeTo(std::string* out) const {
  const TrackerConfig& config = layout_->config;
  out->append("trk v2\n");
  text::AppendDouble(out, creation_time_);
  out->push_back(' ');
  text::AppendInt(out, config.window_lengths.size());
  out->push_back(' ');
  text::AppendInt(out, config.landmark_ages.size());
  out->push_back('\n');
  for (const StreamState& stream : streams_) {
    // An empty stream is its total alone.  A non-empty one writes its
    // scalars and landmark counts on one line, then its windows; the
    // EWMA time (the last event age), the landmarks' done bits and each
    // window's total and last time are derived, not written.
    if (stream.block == nullptr) {
      out->append("0\n");
      continue;
    }
    const BlockView v = View(stream.block.get(), *layout_);
    const StreamScalars& s = *v.scalars;
    text::AppendInt(out, s.total);
    for (const double value : {s.first_age, s.last_age, s.ewma_rate, s.age_sum.value(),
                               s.age_sum.compensation()}) {
      out->push_back(' ');
      text::AppendDouble(out, value);
    }
    for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
      out->push_back(' ');
      text::AppendInt(out, v.landmarks[j]);
    }
    out->push_back('\n');
    size_t region = 0;
    for (size_t i = 0; i < config.window_lengths.size(); ++i) {
      dgim::Write(out, {v.newest + region, v.log2_size + region, v.used[i]});
      region += v.cap[i];
    }
  }
}

std::string CascadeTracker::Serialize() const {
  std::string out;
  out.reserve(SerializedBytesBound());
  SerializeTo(&out);
  return out;
}

size_t CascadeTracker::SerializedBytesBound() const {
  // Each token at its widest, with the byte after it: a double at 17
  // digits ("-2.2250738585072014e-308"), an integer ("18446744073709551615").
  constexpr size_t kDouble = 25, kInt = 21;
  const size_t windows = NumWindows(*layout_);
  size_t bytes = 7 + kDouble + 2 * kInt;  // "trk v2", creation time, layout
  for (const StreamState& stream : streams_) {
    if (stream.block == nullptr) {
      bytes += 2;  // "0\n"
      continue;
    }
    bytes += kInt + 5 * kDouble + NumLandmarks(*layout_) * kInt;
    const BlockView v = View(stream.block.get(), *layout_);
    for (size_t i = 0; i < windows; ++i) bytes += kInt + v.used[i] * (kDouble + kInt);
  }
  return bytes;
}

bool CascadeTracker::Deserialize(std::string_view blob) {
  const TrackerConfig& config = layout_->config;
  const size_t num_windows = config.window_lengths.size();
  const size_t num_landmarks = config.landmark_ages.size();
  text::Reader in(blob);
  std::string_view magic, version;
  if (!in.ReadWord(&magic) || !in.ReadWord(&version) || magic != "trk" ||
      version != "v2") {
    return false;
  }
  double creation_time = 0.0;
  size_t blob_windows = 0, blob_landmarks = 0;
  if (!in.Read(&creation_time, &blob_windows, &blob_landmarks)) return false;
  if (!std::isfinite(creation_time) || blob_windows != num_windows ||
      blob_landmarks != num_landmarks) {
    return false;
  }
  std::array<StreamState, kNumEngagementTypes> streams;
  std::array<dgim::Buckets, kMaxTrackerLayout> windows;
  for (StreamState& stream : streams) {
    // An empty stream is its total, 0, alone, and gets no block.
    StreamScalars s;
    if (!in.Read(&s.total)) return false;
    if (s.total == 0) continue;
    double sum = 0.0, comp = 0.0;
    if (!in.Read(&s.first_age, &s.last_age, &s.ewma_rate, &sum, &comp) ||
        !PlausibleScalars(s.total, s.first_age, s.last_age, s.ewma_rate, sum, comp,
                          config.ewma_tau)) {
      return false;
    }
    s.age_sum.Restore(sum, comp);
    std::array<uint64_t, kMaxTrackerLayout> landmarks{};
    for (size_t j = 0; j < num_landmarks; ++j) {
      if (!in.Read(&landmarks[j]) ||
          !PlausibleLandmark(s.total, s.first_age, s.last_age, config.landmark_ages[j],
                             landmarks[j])) {
        return false;
      }
    }
    // Each window's buckets are checked against the stream's total and
    // last event age, which are the window's own.
    for (size_t i = 0; i < num_windows; ++i) {
      if (!dgim::Read(&in, layout_->max_per_size, s.total, s.last_age, &windows[i])) {
        return false;
      }
    }
    // The block is fitted to the buckets read.  dgim::Read admits fewer
    // than MaxRegion buckets, so the counts fit 16 bits.
    std::array<uint16_t, kMaxTrackerLayout> caps{};
    for (size_t i = 0; i < num_windows; ++i) {
      caps[i] = static_cast<uint16_t>(windows[i].size() + 1);
    }
    stream.block.reset(BuildBlock(*layout_, caps.data(), nullptr));
    const BlockView v = View(stream.block.get(), *layout_);
    *v.scalars = s;
    std::copy(landmarks.begin(), landmarks.begin() + num_landmarks, v.landmarks);
    size_t region = 0;
    for (size_t i = 0; i < num_windows; ++i) {
      v.used[i] = static_cast<uint16_t>(windows[i].size());
      std::copy(windows[i].newest.begin(), windows[i].newest.end(), v.newest + region);
      std::copy(windows[i].log2_size.begin(), windows[i].log2_size.end(),
                v.log2_size + region);
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
