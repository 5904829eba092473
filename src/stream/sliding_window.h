// Exact sliding-window counter: the baseline the exponential histogram
// (stream/exponential_histogram.h) is tested and benchmarked against.
#ifndef HORIZON_STREAM_SLIDING_WINDOW_H_
#define HORIZON_STREAM_SLIDING_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <deque>

namespace horizon::stream {

/// Exact count of events in a sliding time window.  Memory grows with the
/// number of in-window events; used as ground truth in tests and in the
/// stream micro-benchmark.
class ExactSlidingWindow {
 public:
  explicit ExactSlidingWindow(double window_length);

  /// Records an event at time `t` (non-decreasing).
  void Add(double t);

  /// Exact number of events in (now - window, now].
  uint64_t Count(double now) const;

  uint64_t TotalCount() const { return total_; }
  size_t MemoryEvents() const { return times_.size(); }
  double window_length() const { return window_; }

 private:
  double window_;
  // Pruned by Add only; Count() is a pure read (concurrent-reader safe).
  std::deque<double> times_;
  uint64_t total_ = 0;
  double last_t_ = -1e300;
};

}  // namespace horizon::stream

#endif  // HORIZON_STREAM_SLIDING_WINDOW_H_
