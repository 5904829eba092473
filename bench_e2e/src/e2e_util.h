// Helpers of the end-to-end serving benchmark that carry logic worth
// testing on their own: order statistics, the Zipf id sampler, open-loop
// due-time accounting, and span recording with self-time subtraction.
#ifndef HORIZON_BENCH_E2E_E2E_UTIL_H_
#define HORIZON_BENCH_E2E_E2E_UTIL_H_

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace horizon::bench {

// --- Order statistics -----------------------------------------------------

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Median (nearest-rank, q = 0.5).
double Median(std::vector<double> values);

/// A tail latency reported by the "highest percentile with at least ten
/// samples beyond it" rule.
struct TailStat {
  double value = 0.0;
  double percentile = 0.0;  ///< in percent, e.g. 90.0
  size_t samples = 0;
};

/// With n sorted samples, the value at 0-based rank n - 11 has exactly ten
/// samples beyond it; its percentile is 100 * (n - 10) / n.  Below 20
/// samples that rank falls under the median, so the median is reported
/// instead (percentile 50).
TailStat TailPercentile(std::vector<double> values);

/// Latency samples and completed requests of one measurement window.
struct Window {
  std::vector<double> single_ns;
  std::vector<double> single_cpu_ns;  ///< thread CPU time of the same calls
  std::vector<double> batch_ns;
  uint64_t requests = 0;
  double seconds = 0.0;  ///< how long the window ran
};

/// Adds `more` into `into` window by window (merging per-thread windows).
void MergeWindows(std::vector<Window>* into, const std::vector<Window>& more);

/// Median across windows of each window's q-percentile, over the windows
/// that hold at least `min_samples` values; the pooled q-percentile when
/// none does.  A burst of outside load that spoils a minority of windows
/// leaves the result unchanged.
double MedianOfWindowPercentiles(const std::vector<std::vector<double>>& windows, double q,
                                 size_t min_samples);

/// Lowest per-window q-percentile, over the windows that hold at least
/// `min_samples` values; the pooled q-percentile when none does.  Outside
/// load only slows a window down, so the least disturbed window is the
/// steadiest estimate of the program's own cost.
double LowestWindowPercentile(const std::vector<std::vector<double>>& windows, double q,
                              size_t min_samples);

// --- Zipf sampler -----------------------------------------------------------

/// Draws ranks in [0, n) with P(rank = k) proportional to 1 / (k + 1)^s.
/// Sampling inverts a precomputed CDF by binary search: O(log n) per draw.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);

  /// Rank for a uniform draw u in [0, 1).
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

// --- Open-loop schedule -----------------------------------------------------

/// Request i of an open loop is due at start + i / rate.  Latency is timed
/// from the due time, so a stall is charged to every request queued behind
/// it; lateness is how far behind its schedule the generator sent.
class OpenLoopSchedule {
 public:
  explicit OpenLoopSchedule(double rate_per_s) : rate_(rate_per_s) {}

  /// Due time of request i, in ns after the loop's start.
  int64_t DueNs(uint64_t i) const {
    return static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_);
  }

  /// Records one request: sent at `sent_ns` and completed at `done_ns`, both
  /// relative to the loop's start.  Returns its latency from the due time.
  int64_t Record(uint64_t i, int64_t sent_ns, int64_t done_ns);

  /// Lateness of each recorded send (sent - due, clamped at 0), in ns.
  const std::vector<double>& lateness_ns() const { return lateness_ns_; }

 private:
  double rate_;
  std::vector<double> lateness_ns_;
};

// --- Spans ------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

/// CPU time the calling thread has consumed.  Unlike a wall-clock interval,
/// a difference of two readings leaves out the time the thread spent
/// descheduled or blocked.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One timed call at a layer boundary.  Children either nest inside the
/// parent's interval or are replays of its inputs through a module API,
/// timed right after it; in both cases the parent's self time is its
/// duration minus its children's durations.
struct Span {
  std::string_view name;  ///< a string literal: spans never own names
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;     ///< index into the same recorder, -1 for a root
  uint64_t request = 0;    ///< shared by every span of one request
  double attribute = 0.0;  ///< free numeric tag (e.g. cascade size)

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span store of one thread.  Not thread-safe: each thread owns
/// one recorder, and the recorders are merged after the threads join.
class SpanRecorder {
 public:
  /// Appends a finished span and returns its index.
  int32_t Add(std::string_view name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request, double attribute = 0.0);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Appends `part` to `all`, rebasing its parent indices.
void AppendSpans(std::vector<Span>* all, const std::vector<Span>& part);

/// Self time of every span: its duration minus the summed durations of its
/// direct children (grandchildren count only against their own parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Mean duration (or self time, when `self` is non-null) of the spans named
/// `name`, in ns; 0 when there are none.
double MeanNs(const std::vector<Span>& spans, std::string_view name,
              const std::vector<int64_t>* self = nullptr);

/// Number of spans named `name`.
size_t CountSpans(const std::vector<Span>& spans, std::string_view name);

}  // namespace horizon::bench

#endif  // HORIZON_BENCH_E2E_E2E_UTIL_H_
