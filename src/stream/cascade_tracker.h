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
#ifndef HORIZON_STREAM_CASCADE_TRACKER_H_
#define HORIZON_STREAM_CASCADE_TRACKER_H_

#include <cstddef>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "stream/sliding_window.h"

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
/// snapshots hold their per-window and per-landmark values inline, so a
/// Snapshot allocates nothing.  CascadeTracker checks the cap;
/// serving::ServiceConfig::Validate rejects a layout over it.
inline constexpr size_t kMaxTrackerLayout = 8;

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
  /// Relative error of the sliding-window counters.
  double epsilon = 0.05;
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
  CascadeTracker(double creation_time, const TrackerConfig& config);

  /// Records one engagement event at absolute time `t`.  Requires
  /// Accepts(type, t).
  void Observe(EngagementType type, double t);

  /// Whether Observe(type, t) keeps the ordering contract: `t` is not
  /// before the creation time, nor before the last event of `type`.
  bool Accepts(EngagementType type, double t) const;

  /// Total events of the given type so far.
  uint64_t TotalCount(EngagementType type) const;

  /// Builds the feature snapshot at absolute time `s` (>= all observed
  /// events).  Does not mutate logical state.
  TrackerSnapshot Snapshot(double s) const;

  double creation_time() const { return creation_time_; }
  const TrackerConfig& config() const { return config_; }

  /// Serializes the full O(1) state (creation time, totals, sliding-window
  /// histograms, landmarks, EWMA rate, running age sums) to a portable
  /// ASCII blob.  Doubles are printed with 17 significant digits, so a
  /// restore reproduces every quantity bit-exactly.
  std::string Serialize() const;

  /// Restores state written by Serialize into this tracker.  The tracker
  /// must have been constructed with the same configuration (window and
  /// landmark layout); returns false on parse failure or layout mismatch,
  /// leaving the tracker unspecified but safe to destroy.
  bool Deserialize(const std::string& text);

 private:
  struct StreamState {
    explicit StreamState(const TrackerConfig& config);

    void Add(double age, const TrackerConfig& config);
    void Snapshot(double age, const TrackerConfig& config, StreamSnapshot* out) const;

    WindowBank bank;
    uint64_t total = 0;
    // landmark_counts_[j] is finalized once an event (or snapshot) at age
    // beyond landmark j is seen.
    std::vector<uint64_t> landmark_counts;
    std::vector<bool> landmark_done;
    KahanSum age_sum;
    double first_age = -1.0;
    double last_age = -1.0;
    double ewma_rate = 0.0;   // events per second
    double ewma_time = 0.0;   // age at which ewma_rate was last updated
  };

  double creation_time_;
  TrackerConfig config_;
  std::array<StreamState, kNumEngagementTypes> streams_;
};

}  // namespace horizon::stream

#endif  // HORIZON_STREAM_CASCADE_TRACKER_H_
