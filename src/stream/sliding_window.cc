#include "stream/sliding_window.h"

#include <algorithm>

#include "common/check.h"

namespace horizon::stream {

ExactSlidingWindow::ExactSlidingWindow(double window_length) : window_(window_length) {
  HORIZON_CHECK_GT(window_length, 0.0);
}

void ExactSlidingWindow::Add(double t) {
  HORIZON_CHECK_GE(t, last_t_);
  last_t_ = t;
  ++total_;
  // Expire on the write path so Count() stays a pure read (the same
  // concurrent-reader contract as ExponentialHistogram).
  const double cutoff = t - window_;
  while (!times_.empty() && times_.front() <= cutoff) times_.pop_front();
  times_.push_back(t);
}

uint64_t ExactSlidingWindow::Count(double now) const {
  // Pure read: timestamps are sorted, so the in-window suffix starts at
  // the first element past the cutoff.
  const double cutoff = now - window_;
  const auto first =
      std::upper_bound(times_.begin(), times_.end(), cutoff);
  return static_cast<uint64_t>(times_.end() - first);
}

}  // namespace horizon::stream
