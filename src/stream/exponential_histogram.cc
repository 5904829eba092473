#include "stream/exponential_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "common/check.h"

namespace horizon::stream {

namespace dgim {

size_t MaxPerSize(double epsilon) {
  return static_cast<size_t>(std::ceil(1.0 / epsilon)) + 1;
}

size_t Add(Bucket* b, size_t n, double t, double window,
           size_t max_per_size) {
  // Expire on the write path, never in Count: reads stay pure, so
  // concurrent const callers of Count() need no synchronization.  Newest
  // times are non-decreasing, so the expired buckets form a prefix.
  const double cutoff = t - window;
  size_t live = 0;
  while (live < n && b[live].newest <= cutoff) ++live;
  if (live > 0) {
    std::copy(b + live, b + n, b);
    n -= live;
  }
  b[n++] = {t, 1};
  // Sizes are non-increasing toward the newest bucket and no size occurs
  // more than max_per_size times (see the header), so the run of `size`
  // whose newest bucket is `last` is over-full exactly when the bucket
  // max_per_size places older has the same size.  Merge the run's two
  // oldest buckets into one of double the size: it becomes the newest
  // bucket of the next run, which may now be over-full in turn.
  size_t last = n - 1;
  for (uint64_t size = 1;
       last >= max_per_size && b[last - max_per_size].size == size; size *= 2) {
    const size_t i = last - max_per_size;
    b[i] = {b[i + 1].newest, size * 2};
    std::copy(b + i + 2, b + n, b + i + 1);
    --n;
    last = i;
  }
  return n;
}

uint64_t Count(std::span<const Bucket> buckets, double now, double window) {
  const double cutoff = now - window;
  uint64_t sum = 0;
  uint64_t straddler = 0;  // oldest surviving bucket's size
  for (const Bucket& b : buckets) {
    if (b.newest <= cutoff) continue;  // fully expired
    if (straddler == 0) straddler = b.size;
    sum += b.size;
  }
  // The oldest surviving bucket straddles the window boundary; count half
  // of it, which is what bounds the relative error.
  return sum - straddler / 2;
}

void Write(std::ostream& os, uint64_t total, double last_t,
           std::span<const Bucket> buckets) {
  os << total << " " << last_t << " " << buckets.size() << "\n";
  for (const Bucket& b : buckets) {
    os << b.newest << " " << b.size << "\n";
  }
}

bool Read(std::istream& is, size_t max_per_size, uint64_t* total,
          double* last_t, std::vector<Bucket>* buckets) {
  uint64_t parsed_total = 0;
  double parsed_last_t = 0.0;
  size_t num_buckets = 0;
  if (!(is >> parsed_total >> parsed_last_t >> num_buckets)) return false;
  // A valid window keeps O(log(total)/eps) buckets; anything beyond this
  // bound is corrupt input, rejected before allocating.
  if (num_buckets > 64 * (max_per_size + 1)) return false;
  std::vector<Bucket> parsed;
  uint64_t sum = 0;
  size_t run = 0;  // buckets of the last bucket's size, itself included
  for (size_t i = 0; i < num_buckets; ++i) {
    Bucket b{};
    if (!(is >> b.newest >> b.size) || !std::isfinite(b.newest)) {
      return false;
    }
    // Add relies on sorted times at or before the last event, sizes that
    // never exceed the events the window has seen, and the invariant it
    // keeps: power-of-two sizes, non-increasing toward newer buckets, at
    // most max_per_size of each.
    if ((!parsed.empty() && b.newest < parsed.back().newest) ||
        b.newest > parsed_last_t || b.size > parsed_total - sum ||
        !std::has_single_bit(b.size) ||
        (!parsed.empty() && b.size > parsed.back().size)) {
      return false;
    }
    run = !parsed.empty() && b.size == parsed.back().size ? run + 1 : 1;
    if (run > max_per_size) return false;
    sum += b.size;
    parsed.push_back(b);
  }
  *total = parsed_total;
  *last_t = parsed_last_t;
  *buckets = std::move(parsed);
  return true;
}

}  // namespace dgim

ExponentialHistogram::ExponentialHistogram(double window_length, double epsilon)
    : window_(window_length) {
  HORIZON_CHECK_GT(window_length, 0.0);
  HORIZON_CHECK(epsilon > 0.0 && epsilon <= 1.0);
  max_per_size_ = dgim::MaxPerSize(epsilon);
}

void ExponentialHistogram::Add(double t) {
  HORIZON_CHECK_GE(t, last_t_);
  last_t_ = t;
  ++total_;
  const size_t n = buckets_.size();
  buckets_.emplace_back();  // the room dgim::Add appends into
  buckets_.resize(dgim::Add(buckets_.data(), n, t, window_, max_per_size_));
}

uint64_t ExponentialHistogram::Count(double now) const {
  return dgim::Count(buckets_, now, window_);
}

void ExponentialHistogram::SerializeTo(std::ostream& os) const {
  dgim::Write(os, total_, last_t_, buckets_);
}

bool ExponentialHistogram::DeserializeFrom(std::istream& is) {
  return dgim::Read(is, max_per_size_, &total_, &last_t_, &buckets_);
}

}  // namespace horizon::stream
