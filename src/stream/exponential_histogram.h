// Sliding-window event counting over a data stream using the exponential
// histogram of Datar, Gionis, Indyk and Motwani (SIAM J. Comput. 2002) --
// reference [18] of the paper.  This is the substrate that makes the
// temporal "velocity" features computable in O(1) amortized time and
// O(log^2 W / eps)-ish space per content item, independent of cascade size.
//
// The bucket logic lives once, in namespace dgim, as functions over
// caller-owned bucket storage.  A bucket's size is a power of two, so a
// window keeps it as its log2 in one byte: a window's buckets are an array
// of newest-event times and a parallel array of log2 sizes, 9 bytes a
// bucket.  ExponentialHistogram wraps the functions for one standalone
// window in two vectors; CascadeTracker runs them over each window region
// of a stream's heap block and keeps the window length, the per-size cap,
// the event total and the last event time itself, shared across windows.
#ifndef HORIZON_STREAM_EXPONENTIAL_HISTOGRAM_H_
#define HORIZON_STREAM_EXPONENTIAL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace horizon::text {
class Reader;
}  // namespace horizon::text

namespace horizon::stream {

namespace dgim {

/// A window's n buckets, oldest first, in two parallel arrays: bucket i
/// holds 2^log2_size[i] events (log2_size[i] <= 63), the newest of them
/// at time newest[i].
struct BucketSpan {
  const double* newest = nullptr;
  const uint8_t* log2_size = nullptr;
  size_t n = 0;

  /// Events in bucket i.
  uint64_t SizeOf(size_t i) const { return uint64_t{1} << log2_size[i]; }
};

/// A window's buckets in two vectors of equal length, laid out as in
/// BucketSpan.
struct Buckets {
  std::vector<double> newest;
  std::vector<uint8_t> log2_size;

  size_t size() const { return newest.size(); }
  BucketSpan span() const { return {newest.data(), log2_size.data(), newest.size()}; }
};

/// Most buckets of one size a window keeps: ceil(1/epsilon) + 1, which
/// bounds the relative error of Count by epsilon.
size_t MaxPerSize(double epsilon);

/// The most buckets a window with this per-size cap holds, and room for
/// the one Add appends: 64 sizes (2^0 .. 2^63) of at most
/// max_per_size + 1 buckets each.  Read rejects more, before allocating.
constexpr size_t MaxBuckets(size_t max_per_size) { return 64 * (max_per_size + 1); }

/// Records one event at time `t` (>= every earlier event) in the `n`
/// buckets at `newest` and `log2_size` (oldest first, as in BucketSpan),
/// which must both have room for n + 1: drops the prefix that has left
/// the window of length `window`, appends a size-1 bucket, then merges
/// the two oldest buckets of any size that has more than `max_per_size`.
/// Returns the new count.
///
/// Invariant: after every Add, sizes are powers of two, non-increasing
/// from the oldest bucket to the newest, and no size occurs more than
/// `max_per_size` times.  Add keeps it (expiry only drops the oldest
/// prefix) and relies on it: it finds an over-full run in O(1) instead of
/// scanning for it.  Read admits only buckets that hold it.
size_t Add(double* newest, uint8_t* log2_size, size_t n, double t, double window,
           size_t max_per_size);

/// Estimated number of events in (now - window, now].  A pure read:
/// buckets that have expired since the last Add are skipped, not dropped.
uint64_t Count(BucketSpan buckets, double now, double window);

/// Appends the bucket count and one "newest size" line per bucket to
/// `out`, times at 17 significant digits.  A window keeps no total or
/// last time of its own: they are its stream's.
void Write(std::string* out, BucketSpan buckets);

/// Reads what Write wrote, for a window of a stream of `total` events,
/// the last at `last_t`.  Rejects, before allocating, more buckets than
/// a window with this per-size cap can hold; then rejects a non-finite or
/// decreasing `newest`, a `newest` past `last_t`, sizes that sum to more
/// than `total`, and buckets that break Add's invariant: a size that is
/// not a power of two, one larger than an older bucket's, or more than
/// `max_per_size` buckets of one size.  On false `buckets` is unchanged.
bool Read(text::Reader* in, size_t max_per_size, uint64_t total, double last_t,
          Buckets* buckets);

}  // namespace dgim

/// Approximate count of events inside one sliding time window.
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

 private:
  double window_;
  size_t max_per_size_;
  // Front = oldest.  Expired buckets are dropped on the write path (Add)
  // only: Count() is a PURE read, so const callers may share one
  // histogram across threads without synchronization.
  dgim::Buckets buckets_;
  uint64_t total_ = 0;
  double last_t_ = -std::numeric_limits<double>::infinity();
};

}  // namespace horizon::stream

#endif  // HORIZON_STREAM_EXPONENTIAL_HISTOGRAM_H_
