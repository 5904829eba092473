#include "stream/exponential_histogram.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"

namespace horizon::stream {

ExponentialHistogram::ExponentialHistogram(double window_length, double epsilon)
    : window_(window_length) {
  HORIZON_CHECK_GT(window_length, 0.0);
  HORIZON_CHECK(epsilon > 0.0 && epsilon <= 1.0);
  max_per_size_ = static_cast<size_t>(std::ceil(1.0 / epsilon)) + 1;
}

void ExponentialHistogram::Add(double t) {
  HORIZON_CHECK_GE(t, last_t_);
  last_t_ = t;
  ++total_;
  // Expire on the write path, never in Count: reads stay pure, so
  // concurrent const callers of Count() need no synchronization.
  Expire(t);
  buckets_.push_back({t, 1});
  // Cascade merges: whenever more than max_per_size_ buckets share a size,
  // merge the two oldest of that size into one of double the size.  Because
  // the deque is ordered oldest->newest and sizes are non-increasing toward
  // the back, equal-size runs are contiguous.
  uint64_t size = 1;
  for (;;) {
    // Find the run of buckets with this size (they are contiguous, ending at
    // the first bucket of larger size when scanning from the back).
    size_t run = 0;
    size_t i = buckets_.size();
    while (i > 0 && buckets_[i - 1].size < size) --i;
    while (i > 0 && buckets_[i - 1].size == size) {
      --i;
      ++run;
    }
    if (run <= max_per_size_) break;
    // Merge the two oldest buckets of this run (indices i and i+1).
    Bucket merged{buckets_[i + 1].newest, size * 2};
    buckets_[i] = merged;
    buckets_.erase(buckets_.begin() + static_cast<ptrdiff_t>(i) + 1);
    size *= 2;
  }
}

void ExponentialHistogram::Expire(double now) {
  const double cutoff = now - window_;
  while (!buckets_.empty() && buckets_.front().newest <= cutoff) {
    buckets_.pop_front();
  }
}

uint64_t ExponentialHistogram::Count(double now) const {
  // Pure read: expired buckets (only pruned by Add) are skipped
  // arithmetically rather than popped, so any number of threads may
  // Count() the same histogram concurrently.
  const double cutoff = now - window_;
  uint64_t sum = 0;
  uint64_t straddler = 0;  // oldest surviving bucket's size
  for (const Bucket& b : buckets_) {
    if (b.newest <= cutoff) continue;  // fully expired
    if (straddler == 0) straddler = b.size;
    sum += b.size;
  }
  // The oldest surviving bucket straddles the window boundary; count half
  // of it, which is what bounds the relative error.
  return sum - straddler / 2;
}

void ExponentialHistogram::SerializeTo(std::ostream& os) const {
  os << total_ << " " << last_t_ << " " << buckets_.size() << "\n";
  for (const Bucket& b : buckets_) {
    os << b.newest << " " << b.size << "\n";
  }
}

bool ExponentialHistogram::DeserializeFrom(std::istream& is) {
  uint64_t total = 0;
  double last_t = 0.0;
  size_t num_buckets = 0;
  if (!(is >> total >> last_t >> num_buckets)) return false;
  // A valid histogram keeps O(log(total)/eps) buckets; anything beyond this
  // bound is corrupt input, rejected before allocating.
  if (num_buckets > 64 * (max_per_size_ + 1)) return false;
  std::deque<Bucket> buckets;
  for (size_t i = 0; i < num_buckets; ++i) {
    Bucket b{};
    if (!(is >> b.newest >> b.size) || b.size == 0 || !std::isfinite(b.newest)) {
      return false;
    }
    buckets.push_back(b);
  }
  total_ = total;
  last_t_ = last_t;
  buckets_ = std::move(buckets);
  return true;
}

}  // namespace horizon::stream
