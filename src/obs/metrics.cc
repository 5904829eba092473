#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/check.h"

namespace horizon::obs {

namespace internal {

size_t ThreadSlot() {
  // One monotonically assigned slot per thread; cheaper and better spread
  // than hashing std::this_thread::get_id().
  static std::atomic<size_t> next{0};
  // order: relaxed; the ticket only needs uniqueness, not ordering --
  // each thread reads its own thread_local afterwards.
  thread_local const size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

namespace {

/// Prometheus metric-name grammar: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

/// Shortest round-trip double formatting (JSON + Prometheus values).
std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips.
  char shorter[32];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  return back == v ? shorter : buf;
}

thread_local uint32_t sample_tick = 0;

}  // namespace

Histogram* SampleEvery(uint32_t rate, Histogram* hist) {
  if (rate <= 1) return hist;
  return (sample_tick++ % rate == 0) ? hist : nullptr;
}

std::vector<double> LatencyBuckets() {
  std::vector<double> bounds;
  double b = 1e-7;  // 100 ns
  for (int i = 0; i < 31; ++i, b *= 2.0) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  HORIZON_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HORIZON_CHECK(bounds_[i - 1] < bounds_[i]);
  }
}

void Histogram::Observe(double value) {
  // lower_bound: the first bound >= value owns it, i.e. Prometheus `le`
  // (inclusive upper edge) semantics.
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  // order: relaxed (all three); pure statistics paired with the
  // relaxed reads in BucketCounts/Count/Sum.  Scrapes may observe the
  // three fields mutually inconsistent; the exporter documents that.
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  // order: relaxed; see above.
  count_.fetch_add(1, std::memory_order_relaxed);
  // order: relaxed; see above.
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    // order: relaxed; pairs with the relaxed fetch_add in Observe --
    // a racy-by-contract scrape snapshot.
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Rank of the q-th observation (1-based, ceil), then walk the CDF.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    if (i == counts.size() - 1) return bounds_.back();  // +Inf bucket: floor
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = bounds_[i];
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(counts[i]);
    return lo + frac * (hi - lo);
  }
  return bounds_.back();
}

void Histogram::Reset() {
  // order: relaxed (all three); test-only zeroing, same no-payload
  // contract as Observe.
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  // order: relaxed; see above.
  count_.store(0, std::memory_order_relaxed);
  // order: relaxed; see above.
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // horizon-lint: allow(naked-new) -- intentionally leaked singleton:
  // instruments hand out stable pointers that hot paths may dereference
  // during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  HORIZON_CHECK(ValidMetricName(name));
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  HORIZON_CHECK(ValidMetricName(name));
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, LatencyBuckets());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  HORIZON_CHECK(ValidMetricName(name));
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  } else {
    HORIZON_CHECK(slot->bounds() == bounds);  // one meaning per name
  }
  return slot.get();
}

std::string MetricsRegistry::DumpPrometheus() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    os << "# TYPE " << name << " counter\n";
    os << name << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << "# TYPE " << name << " gauge\n";
    os << name << " " << FormatDouble(gauge->Value()) << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    os << "# TYPE " << name << " histogram\n";
    const auto counts = hist->BucketCounts();
    const auto& bounds = hist->bounds();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      const std::string le =
          i < bounds.size() ? FormatDouble(bounds[i]) : "+Inf";
      os << name << "_bucket{le=\"" << le << "\"} " << cumulative << "\n";
    }
    os << name << "_sum " << FormatDouble(hist->Sum()) << "\n";
    os << name << "_count " << hist->Count() << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::DumpJson() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  os << "{";
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << counter->Value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << FormatDouble(gauge->Value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << hist->Count()
       << ",\"sum\":" << FormatDouble(hist->Sum())
       << ",\"p50\":" << FormatDouble(hist->Quantile(0.50))
       << ",\"p95\":" << FormatDouble(hist->Quantile(0.95))
       << ",\"p99\":" << FormatDouble(hist->Quantile(0.99)) << "}";
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::Reset() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Set(0.0);
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace horizon::obs
