#include "stream/exponential_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/text_codec.h"

namespace horizon::stream {

namespace dgim {

size_t MaxPerSize(double epsilon) {
  return static_cast<size_t>(std::ceil(1.0 / epsilon)) + 1;
}

size_t Add(double* newest, uint8_t* log2_size, size_t n, double t, double window,
           size_t max_per_size) {
  // Expire on the write path, never in Count: reads stay pure, so
  // concurrent const callers of Count() need no synchronization.  Newest
  // times are non-decreasing, so the expired buckets form a prefix.
  const double cutoff = t - window;
  size_t live = 0;
  while (live < n && newest[live] <= cutoff) ++live;
  if (live > 0) {
    std::copy(newest + live, newest + n, newest);
    std::copy(log2_size + live, log2_size + n, log2_size);
    n -= live;
  }
  newest[n] = t;
  log2_size[n] = 0;
  ++n;
  // Sizes are non-increasing toward the newest bucket and no size occurs
  // more than max_per_size times (see the header), so the run of one size
  // whose newest bucket is `last` is over-full exactly when the bucket
  // max_per_size places older has the same size.  Merge the run's two
  // oldest buckets into one of double the size: it becomes the newest
  // bucket of the next run, which may now be over-full in turn.
  size_t last = n - 1;
  for (uint8_t log2 = 0;
       last >= max_per_size && log2_size[last - max_per_size] == log2; ++log2) {
    const size_t i = last - max_per_size;
    newest[i] = newest[i + 1];
    std::copy(newest + i + 2, newest + n, newest + i + 1);
    // Buckets i + 1 .. last all have this size, so dropping bucket i + 1's
    // size drops bucket last's: only the smaller sizes after it move, and
    // at the first merge there are none.
    log2_size[i] = static_cast<uint8_t>(log2 + 1);
    std::copy(log2_size + last + 1, log2_size + n, log2_size + last);
    --n;
    last = i;
  }
  return n;
}

uint64_t Count(BucketSpan buckets, double now, double window) {
  // Times are non-decreasing, so the fully expired buckets form a prefix.
  const double cutoff = now - window;
  size_t oldest = 0;
  while (oldest < buckets.n && buckets.newest[oldest] <= cutoff) ++oldest;
  if (oldest == buckets.n) return 0;
  uint64_t sum = 0;
  for (size_t i = oldest; i < buckets.n; ++i) sum += buckets.SizeOf(i);
  // The oldest surviving bucket straddles the window boundary; count half
  // of it, which is what bounds the relative error.
  return sum - buckets.SizeOf(oldest) / 2;
}

void Write(std::string* out, BucketSpan buckets) {
  text::AppendInt(out, buckets.n);
  out->push_back('\n');
  for (size_t i = 0; i < buckets.n; ++i) {
    text::AppendDouble(out, buckets.newest[i]);
    out->push_back(' ');
    text::AppendInt(out, buckets.SizeOf(i));
    out->push_back('\n');
  }
}

bool Read(text::Reader* in, size_t max_per_size, uint64_t total, double last_t,
          Buckets* buckets) {
  size_t num_buckets = 0;
  if (!in->Read(&num_buckets)) return false;
  // A valid window keeps O(log(total)/eps) buckets; anything beyond this
  // bound is corrupt input, rejected before allocating.
  if (num_buckets > MaxBuckets(max_per_size)) return false;
  Buckets parsed;
  parsed.newest.reserve(num_buckets);
  parsed.log2_size.reserve(num_buckets);
  uint64_t sum = 0;
  size_t run = 0;  // buckets of the last bucket's size, itself included
  for (size_t i = 0; i < num_buckets; ++i) {
    double newest = 0.0;
    uint64_t size = 0;
    if (!in->Read(&newest, &size) || !std::isfinite(newest)) return false;
    // Add relies on sorted times at or before the last event, sizes that
    // never exceed the events the window has seen, and the invariant it
    // keeps: power-of-two sizes (so log2 <= 63), non-increasing toward
    // newer buckets, at most max_per_size of each.
    if (!std::has_single_bit(size)) return false;
    const auto log2 = static_cast<uint8_t>(std::countr_zero(size));
    if ((i > 0 && newest < parsed.newest.back()) || newest > last_t ||
        size > total - sum || (i > 0 && log2 > parsed.log2_size.back())) {
      return false;
    }
    run = i > 0 && log2 == parsed.log2_size.back() ? run + 1 : 1;
    if (run > max_per_size) return false;
    sum += size;
    parsed.newest.push_back(newest);
    parsed.log2_size.push_back(log2);
  }
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
  // Room for the bucket dgim::Add appends.
  const size_t n = buckets_.size();
  buckets_.newest.resize(n + 1);
  buckets_.log2_size.resize(n + 1);
  const size_t kept = dgim::Add(buckets_.newest.data(), buckets_.log2_size.data(), n, t,
                                window_, max_per_size_);
  buckets_.newest.resize(kept);
  buckets_.log2_size.resize(kept);
}

uint64_t ExponentialHistogram::Count(double now) const {
  return dgim::Count(buckets_.span(), now, window_);
}

}  // namespace horizon::stream
