#include "e2e_util.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace horizon::bench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

TailStat TailPercentile(std::vector<double> values) {
  TailStat out;
  out.samples = values.size();
  if (values.size() < 20) {
    out.value = Median(std::move(values));
    out.percentile = 50.0;
    return out;
  }
  const size_t n = values.size();
  const size_t rank = n - 11;  // 0-based; ranks n-10 .. n-1 lie beyond it
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank),
                   values.end());
  out.value = values[rank];
  out.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return out;
}

void MergeWindows(std::vector<Window>* into, const std::vector<Window>& more) {
  if (into->size() < more.size()) into->resize(more.size());
  for (size_t w = 0; w < more.size(); ++w) {
    Window& dst = (*into)[w];
    const Window& src = more[w];
    dst.single_ns.insert(dst.single_ns.end(), src.single_ns.begin(), src.single_ns.end());
    dst.single_cpu_ns.insert(dst.single_cpu_ns.end(), src.single_cpu_ns.begin(),
                             src.single_cpu_ns.end());
    dst.batch_ns.insert(dst.batch_ns.end(), src.batch_ns.begin(), src.batch_ns.end());
    dst.requests += src.requests;
    dst.seconds = std::max(dst.seconds, src.seconds);
  }
}

namespace {

/// Each window's q-percentile, over the windows that hold at least
/// `min_samples` values; the pooled q-percentile alone when none does.
std::vector<double> WindowPercentiles(const std::vector<std::vector<double>>& windows,
                                      double q, size_t min_samples) {
  std::vector<double> per_window, pooled;
  for (const std::vector<double>& w : windows) {
    pooled.insert(pooled.end(), w.begin(), w.end());
    if (w.size() >= min_samples) per_window.push_back(Percentile(w, q));
  }
  if (per_window.empty()) per_window.push_back(Percentile(std::move(pooled), q));
  return per_window;
}

}  // namespace

double MedianOfWindowPercentiles(const std::vector<std::vector<double>>& windows, double q,
                                 size_t min_samples) {
  return Median(WindowPercentiles(windows, q, min_samples));
}

double LowestWindowPercentile(const std::vector<std::vector<double>>& windows, double q,
                              size_t min_samples) {
  const std::vector<double> per_window = WindowPercentiles(windows, q, min_samples);
  return *std::min_element(per_window.begin(), per_window.end());
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler needs n > 0");
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t ZipfSampler::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

int64_t OpenLoopSchedule::Record(uint64_t i, int64_t sent_ns, int64_t done_ns) {
  const int64_t due = DueNs(i);
  lateness_ns_.push_back(static_cast<double>(std::max<int64_t>(0, sent_ns - due)));
  return done_ns - due;
}

int32_t SpanRecorder::Add(std::string_view name, int64_t start_ns, int64_t end_ns,
                          int32_t parent, uint64_t request, double attribute) {
  spans_.push_back(
      Span{name, start_ns, end_ns, parent, request, attribute});
  return static_cast<int32_t>(spans_.size() - 1);
}

void AppendSpans(std::vector<Span>* all, const std::vector<Span>& part) {
  const auto offset = static_cast<int32_t>(all->size());
  for (Span span : part) {
    if (span.parent >= 0) span.parent += offset;
    all->push_back(span);
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      self[static_cast<size_t>(span.parent)] -= span.duration_ns();
    }
  }
  return self;
}

double MeanNs(const std::vector<Span>& spans, std::string_view name,
              const std::vector<int64_t>* self) {
  double total = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    total += static_cast<double>(self != nullptr ? (*self)[i]
                                                 : spans[i].duration_ns());
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

size_t CountSpans(const std::vector<Span>& spans, std::string_view name) {
  return static_cast<size_t>(std::count_if(
      spans.begin(), spans.end(), [&](const Span& s) { return s.name == name; }));
}

}  // namespace horizon::bench
