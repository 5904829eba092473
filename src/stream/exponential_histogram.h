// Sliding-window event counting over a data stream using the exponential
// histogram of Datar, Gionis, Indyk and Motwani (SIAM J. Comput. 2002) --
// reference [18] of the paper.  This is the substrate that makes the
// temporal "velocity" features computable in O(1) amortized time and
// O(log^2 W / eps)-ish space per content item, independent of cascade size.
#ifndef HORIZON_STREAM_EXPONENTIAL_HISTOGRAM_H_
#define HORIZON_STREAM_EXPONENTIAL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>

namespace horizon::stream {

/// Approximate count of events inside a sliding time window.
///
/// Events arrive with non-decreasing timestamps.  `Count(now)` returns an
/// estimate of the number of events with timestamp in (now - window, now]
/// with relative error at most `epsilon` (guaranteed by keeping at most
/// ceil(1/epsilon) + 1 buckets per size and halving the oldest bucket's
/// contribution at query time).
class ExponentialHistogram {
 public:
  /// @param window_length  length of the sliding window (seconds).
  /// @param epsilon        relative error bound in (0, 1].
  ExponentialHistogram(double window_length, double epsilon = 0.1);

  /// Records one event at time `t`.  Timestamps must be non-decreasing.
  void Add(double t);

  /// Estimated number of events in (now - window, now].
  /// `now` must be >= every previously added timestamp.
  uint64_t Count(double now) const;

  /// Exact total number of events ever added (running counter).
  uint64_t TotalCount() const { return total_; }

  /// Number of buckets currently retained (space usage diagnostic).
  size_t NumBuckets() const { return buckets_.size(); }

  double window_length() const { return window_; }

  /// Writes the dynamic state (total, last timestamp, buckets) to `os`.
  /// The window length and epsilon are configuration, not state: restore
  /// into a histogram constructed with the same parameters.
  void SerializeTo(std::ostream& os) const;

  /// Restores state written by SerializeTo.  Returns false on malformed
  /// input (histogram state is then unspecified but safe to destroy).
  bool DeserializeFrom(std::istream& is);

 private:
  struct Bucket {
    double newest;   // timestamp of the most recent event merged in
    uint64_t size;   // number of events represented (power of two)
  };

  void Expire(double now);

  double window_;
  size_t max_per_size_;  // ceil(1/eps) + 1
  // Front = oldest.  Expired buckets are dropped on the write path (Add)
  // only: Count() is a PURE read, so const callers may share one
  // histogram across threads without synchronization.
  std::deque<Bucket> buckets_;
  uint64_t total_ = 0;
  double last_t_ = -1e300;
};

}  // namespace horizon::stream

#endif  // HORIZON_STREAM_EXPONENTIAL_HISTOGRAM_H_
