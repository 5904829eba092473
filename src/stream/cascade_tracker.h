// Constant-space per-content-item engagement tracking.
//
// The paper's scalability requirement is that every temporal feature fed to
// the point predictors is computable in O(1) time and space with respect to
// the observed cascade size.  CascadeTracker is that data structure: it
// ingests the stream of engagement events (views, reshares, comments,
// reactions) for one content item and maintains
//   * running totals per engagement type,
//   * approximate counts over a bank of sliding windows (exponential
//     histograms, ref. [18]),
//   * counts accumulated up to fixed "landmark" ages since creation
//     (e.g. views during the first hour),
//   * an exponentially-weighted moving estimate of the event rate, the
//     velocity proxy for the stochastic intensity lambda(s),
//   * the running mean of event ages (the state behind the mean-value
//     estimator of the effective growth exponent).
//
// Per-item state is sized to what it holds.  The tracker object is a
// pointer to the shared layout, the creation time and one block pointer
// per engagement stream (56 bytes); a stream that has seen no event has
// no block.  A stream's first event allocates its block, which holds the
// stream's scalars, its landmark counts, 16-bit bucket counts per window
// and its windows' DGIM buckets at 9 bytes a bucket
// (exponential_histogram.h).
#ifndef HORIZON_STREAM_CASCADE_TRACKER_H_
#define HORIZON_STREAM_CASCADE_TRACKER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/math_util.h"
#include "stream/exponential_histogram.h"

namespace horizon::stream {

/// Engagement event types tracked per content item.
enum class EngagementType : int {
  kView = 0,
  kShare = 1,
  kComment = 2,
  kReaction = 3,
};
inline constexpr int kNumEngagementTypes = 4;

/// Human-readable name of an engagement type ("view", "share", ...).
const char* EngagementTypeName(EngagementType type);

/// Most sliding windows, and most landmarks, a tracker layout may have:
/// snapshots hold their per-window and per-landmark state inline, so a
/// Snapshot allocates nothing.  TrackerLayout checks the cap;
/// serving::ServiceConfig::Validate rejects a layout over it.
inline constexpr size_t kMaxTrackerLayout = 8;

/// Smallest TrackerConfig::epsilon a tracker layout accepts.  A stream
/// block keeps each window's bucket count and capacity in 16 bits: at
/// epsilon >= 1/1021, dgim::MaxPerSize(epsilon) <= 1022, so every count
/// dgim::Read admits, at most dgim::MaxBuckets(1022) = 65472, fits.
inline constexpr double kMinEpsilon = 1.0 / 1021;

/// Configuration shared by all engagement streams of a tracker.
struct TrackerConfig {
  /// Sliding-window lengths in seconds (recent activity windows); 1 to
  /// kMaxTrackerLayout entries.
  std::vector<double> window_lengths{15 * 60.0, 3600.0, 6 * 3600.0, 24 * 3600.0};
  /// Landmark ages since creation in seconds ("during the first X"); at
  /// most kMaxTrackerLayout entries.
  std::vector<double> landmark_ages{30 * 60.0, 3600.0, 6 * 3600.0, 24 * 3600.0};
  /// Time constant of the EWMA rate estimator (seconds).
  double ewma_tau = 3600.0;
  /// Relative error of the sliding-window counters, in [kMinEpsilon, 1].
  double epsilon = 0.05;
};

/// A TrackerConfig frozen for the trackers that share it, plus what is
/// derived from it once.  Trackers hold it by shared_ptr, so a service's
/// items carry one pointer instead of one copy of the config each; the
/// layout is immutable, so sharing it across threads needs no lock.
struct TrackerLayout {
  /// Checks the config: 1 to kMaxTrackerLayout positive window lengths,
  /// at most kMaxTrackerLayout landmark ages, ewma_tau > 0 and epsilon
  /// in [kMinEpsilon, 1].
  explicit TrackerLayout(TrackerConfig tracker_config);

  const TrackerConfig config;
  const size_t max_per_size;  ///< dgim::MaxPerSize(config.epsilon)
};

/// Point-in-time view of one engagement stream, produced by
/// CascadeTracker::Snapshot.  All quantities are O(1)-state derived.  The
/// per-window and per-landmark arrays hold one entry per window and
/// landmark of the tracker's layout; the rest stay zero.
struct StreamSnapshot {
  uint64_t total = 0;                  ///< events observed so far
  /// Per sliding window: counts, and counts / window length (events/s).
  std::array<uint64_t, kMaxTrackerLayout> window_counts{};
  std::array<double, kMaxTrackerLayout> window_rates{};
  /// Count by each landmark age.
  std::array<uint64_t, kMaxTrackerLayout> landmark_counts{};
  double ewma_rate = 0.0;              ///< EWMA event rate at snapshot time
  double mean_event_age = 0.0;         ///< mean age of events (0 if none)
  double first_event_age = -1.0;       ///< age of first event (-1 if none)
  double last_event_age = -1.0;        ///< age of last event (-1 if none)
};

/// Snapshot of a whole item: one StreamSnapshot per engagement type plus the
/// item age at snapshot time.
struct TrackerSnapshot {
  double age = 0.0;  ///< seconds since content creation
  size_t num_windows = 0;  ///< the tracker layout's window count
  std::array<StreamSnapshot, kNumEngagementTypes> streams;

  const StreamSnapshot& views() const {
    return streams[static_cast<int>(EngagementType::kView)];
  }
  const StreamSnapshot& shares() const {
    return streams[static_cast<int>(EngagementType::kShare)];
  }
  const StreamSnapshot& comments() const {
    return streams[static_cast<int>(EngagementType::kComment)];
  }
  const StreamSnapshot& reactions() const {
    return streams[static_cast<int>(EngagementType::kReaction)];
  }
};

/// O(1)-state tracker for a single content item.  Events must be fed in
/// non-decreasing time order per engagement type.
class CascadeTracker {
 public:
  /// A tracker that reads its window and landmark layout from `layout`,
  /// which it shares with every other tracker built from the same
  /// pointer.
  CascadeTracker(double creation_time, std::shared_ptr<const TrackerLayout> layout);

  /// Convenience: a tracker with a layout of its own, copied from
  /// `config` (no reference to `config` is kept).
  CascadeTracker(double creation_time, const TrackerConfig& config);

  /// Copies deep-copy the stream blocks; moves take them.
  CascadeTracker(const CascadeTracker& other);
  CascadeTracker& operator=(const CascadeTracker& other);
  CascadeTracker(CascadeTracker&&) noexcept = default;
  CascadeTracker& operator=(CascadeTracker&&) noexcept = default;

  /// Records one engagement event at absolute time `t`.  Requires
  /// Accepts(type, t).
  void Observe(EngagementType type, double t);

  /// Whether Observe(type, t) keeps the ordering contract: `t` is not
  /// before the creation time, nor before the last event of `type`.
  bool Accepts(EngagementType type, double t) const;

  /// Whether an event of any type lies after absolute time `s`, its age
  /// compared as Accepts compares it.  Snapshot(s) keeps its contract
  /// only when this is false: a snapshot below an event counts it, and
  /// its EWMA rates decay backwards, to inf once the gap passes ~710
  /// ewma_tau.
  bool HasEventAfter(double s) const;

  /// Total events of the given type so far.
  uint64_t TotalCount(EngagementType type) const;

  /// Builds the feature snapshot at absolute time `s` (>= all observed
  /// events).  Does not mutate logical state.
  TrackerSnapshot Snapshot(double s) const;

  double creation_time() const { return creation_time_; }

  /// Bytes this tracker owns: the object itself plus the heap blocks of
  /// its non-empty streams.  The shared layout is not counted.
  size_t MemoryBytes() const;

  /// Appends the O(1) state the tracker holds to `out` as a portable
  /// ASCII blob (`trk v2`): the creation time and the layout's window and
  /// landmark counts, then per stream its total, alone for an empty
  /// stream; otherwise also its first and last event ages, EWMA rate and
  /// Kahan age sum, its landmark counts, and per window its bucket count
  /// and buckets.  Doubles are printed with 17 significant digits, so a
  /// restore reproduces every quantity bit-exactly.  Allocates nothing
  /// when `out` has room for SerializedBytesBound() more bytes.
  void SerializeTo(std::string* out) const;

  /// The blob SerializeTo appends, in a string of its own.
  std::string Serialize() const;

  /// At least the number of bytes SerializeTo appends.
  size_t SerializedBytesBound() const;

  /// Restores state written by SerializeTo into this tracker.  The tracker
  /// must have been constructed with the same configuration (window and
  /// landmark layout).  Returns false, leaving the tracker unchanged, on
  /// parse failure (text::Reader's rules), a layout mismatch, stream
  /// scalars no sequence of Observe calls produces (EWMA rate, first and
  /// last event ages, the age sum and landmark counts), or buckets
  /// dgim::Read rejects against their stream's total and last event age.
  /// Text after the last window is not read.
  bool Deserialize(std::string_view text);

 private:
  struct FreeBlock {
    void operator()(std::byte* block) const noexcept;
  };
  /// A stream's scalars (event total, age sum, first and last event ages,
  /// EWMA rate), landmark counts and its windows' DGIM buckets, one region
  /// per window, in one allocation sized from the layout (see
  /// cascade_tracker.cc for the layout of the bytes).
  using Block = std::unique_ptr<std::byte[], FreeBlock>;

  struct StreamState {
    void Add(double age, const TrackerLayout& layout);
    void Snapshot(double age, const TrackerLayout& layout,
                  StreamSnapshot* out) const;

    // Made at the stream's first event and grown when a window's region
    // fills, so an empty stream costs only this pointer.
    Block block;
  };

  std::shared_ptr<const TrackerLayout> layout_;
  double creation_time_;
  std::array<StreamState, kNumEngagementTypes> streams_;
};

}  // namespace horizon::stream

#endif  // HORIZON_STREAM_CASCADE_TRACKER_H_
