// Observability layer: a process-wide metrics registry with wait-free
// hot-path instruments and a text/JSON exposition surface.
//
// Instruments
//   Counter    monotone uint64, sharded across cache-line-padded slots
//              (same idea as the serving Shard design: writers pick a slot
//              by hashed thread id, the scraper sums).  Add() is one
//              relaxed fetch_add on a private cache line -- wait-free and
//              contention-free up to kCounterSlots writer threads.
//   Gauge      a single atomic double (Set/Add/Value).
//   Histogram  fixed bucket bounds chosen at registration; Observe() is
//              one relaxed fetch_add into the bucket plus sum/count
//              updates.  The scraper extracts p50/p95/p99 by linear
//              interpolation inside the owning bucket.
//   ScopedTimer  RAII trace hook: measures a steady_clock span and
//              Observe()s it (in seconds) into a Histogram on destruction.
//              Constructed with nullptr it is a no-op, which is how the
//              sampled hot paths (ingest) skip the clock reads entirely.
//
// Registration returns stable pointers that live as long as the registry;
// hot paths capture them once (at service construction) and never touch
// the registry map again.  Scrapes (DumpPrometheus/DumpJson) run under the
// registration mutex but only read relaxed atomics, so writers are never
// blocked; a scrape is a coherent-enough snapshot, same contract as
// ServiceStats.
#ifndef HORIZON_OBS_METRICS_H_
#define HORIZON_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"

namespace horizon::obs {

/// Writer-slot count of sharded counters.  16 padded slots cover the
/// thread counts the serving stack targets; beyond that writers share
/// slots (still wait-free, just contended).
inline constexpr size_t kCounterSlots = 16;

namespace internal {
/// Stable small index for the calling thread, used to pick counter slots.
size_t ThreadSlot();
}  // namespace internal

/// Monotone counter, sharded per thread slot.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment() { Add(1); }
  void Add(uint64_t n) {
    // order: relaxed; pure statistics counter paired with the relaxed
    // reads in Value() -- no payload is published through it and the
    // scrape tolerates being a few increments behind.
    slots_[internal::ThreadSlot() % kCounterSlots].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  /// Sum over the slots (a scrape-time snapshot; monotone across calls).
  uint64_t Value() const {
    uint64_t total = 0;
    // order: relaxed; pairs with the relaxed fetch_add in Add -- the
    // sum across slots is a racy-by-contract scrape snapshot.
    for (const auto& slot : slots_) total += slot.v.load(std::memory_order_relaxed);
    return total;
  }
  void Reset() {
    // order: relaxed; test-only zeroing, same no-payload contract as
    // Add/Value.
    for (auto& slot : slots_) slot.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> v{0};
  };
  Slot slots_[kCounterSlots];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  // order: relaxed on all three; a gauge is a single self-contained
  // value (store/fetch_add pair with the load) and scrapes tolerate
  // staleness by contract.
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  // order: relaxed; see Set.
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  // order: relaxed; see Set.
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Default latency bucket bounds in seconds: 100 ns doubling up to ~107 s
/// (31 finite bounds; values above the last land in the +Inf bucket).
std::vector<double> LatencyBuckets();

/// Fixed-bucket histogram.  Bounds are upper edges, strictly increasing;
/// an implicit +Inf bucket catches the overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  // order: relaxed; pairs with the relaxed fetch_add in Observe.
  // count/sum/buckets are scraped independently and may be mutually
  // inconsistent by a few observations -- documented scrape semantics.
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  // order: relaxed; see Count.
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }

  /// Bucket counts including the final +Inf bucket (size bounds()+1).
  std::vector<uint64_t> BucketCounts() const;

  /// Quantile estimate (q in [0,1]) by linear interpolation within the
  /// bucket containing the q-th observation; 0 when empty.  Values in the
  /// +Inf bucket report the last finite bound (a floor, not an estimate).
  double Quantile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// RAII latency probe: records the elapsed wall time into `hist` (seconds)
/// when it goes out of scope.  A null histogram disables the probe
/// including the clock reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist),
        start_(hist ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    hist_->Observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Returns `hist` once every `rate` calls from this thread and nullptr
/// otherwise -- the sampling hook for instruments on paths too hot to pay
/// two clock reads per operation (ingest).  Percentiles are unaffected by
/// uniform sampling; the histogram's Count() counts samples, not ops.
Histogram* SampleEvery(uint32_t rate, Histogram* hist);

/// Name -> instrument registry.  Get* registers on first use and returns
/// the same stable pointer on every subsequent call.  Names must match
/// [a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus rules); violations are fatal.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide default registry.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is consulted only on first registration; re-registration
  /// with different bounds is fatal (one meaning per name).
  Histogram* GetHistogram(const std::string& name);
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds);

  /// Prometheus text exposition (0.0.4): TYPE comments, _bucket{le=...} /
  /// _sum / _count expansion for histograms.
  std::string DumpPrometheus() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{count,sum,p50,p95,p99}}}.
  std::string DumpJson() const;

  /// Zeroes every instrument (tests and benchmark setup).
  void Reset();

 private:
  // The map (registration index) is guarded; the instruments themselves
  // are lock-free and are touched through stable pointers outside mu_.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HORIZON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      HORIZON_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HORIZON_GUARDED_BY(mu_);
};

}  // namespace horizon::obs

#endif  // HORIZON_OBS_METRICS_H_
