// The scan-based dgim::Add that the O(1) merge check replaced, kept as the
// oracle the new Add must match bucket for bucket (stream_test,
// DgimOracleTest; cascade_tracker_test, TrackerMatchesDgimOracle).
//
// After appending the size-1 bucket it walks back from the newest bucket
// over every smaller run to find the run of the current size, counts it,
// and merges its two oldest buckets while it holds more than max_per_size.
// It keeps each bucket as a (newest, size) pair, not in the windows'
// (newest, log2 size) arrays, so it shares no storage code with them.
#ifndef HORIZON_TESTS_REFERENCE_DGIM_H_
#define HORIZON_TESTS_REFERENCE_DGIM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace horizon::stream::reference {

/// `size` events, the newest of them at time `newest`.
struct Bucket {
  double newest;
  uint64_t size;
};

/// dgim::Add's contract, on one array of buckets.
inline size_t DgimAdd(Bucket* b, size_t n, double t, double window,
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
  // Cascade merges: whenever more than max_per_size buckets share a size,
  // merge the two oldest of that size into one of double the size.
  // Because the buckets are ordered oldest->newest and sizes are
  // non-increasing toward the back, equal-size runs are contiguous.
  uint64_t size = 1;
  for (;;) {
    // Find the run of buckets with this size (they are contiguous, ending
    // at the first bucket of larger size when scanning from the back).
    size_t run = 0;
    size_t i = n;
    while (i > 0 && b[i - 1].size < size) --i;
    while (i > 0 && b[i - 1].size == size) {
      --i;
      ++run;
    }
    if (run <= max_per_size) break;
    // Merge the two oldest buckets of this run (indices i and i+1).
    b[i] = {b[i + 1].newest, size * 2};
    std::copy(b + i + 2, b + n, b + i + 1);
    --n;
    size *= 2;
  }
  return n;
}

/// What dgim::Write writes for these buckets, at the stream's precision.
inline void WriteBuckets(std::ostream& os, const Bucket* b, size_t n) {
  os << n << "\n";
  for (size_t i = 0; i < n; ++i) os << b[i].newest << " " << b[i].size << "\n";
}

}  // namespace horizon::stream::reference

#endif  // HORIZON_TESTS_REFERENCE_DGIM_H_
