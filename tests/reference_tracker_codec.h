// The iostream codec of the `trk v1` tracker blob that the to_chars /
// from_chars codec (common/text_codec.h) replaced, kept as the oracle the
// new one must match (fuzz_deserialize_test, FuzzTrackerCodec.*).
//
// Write is the old CascadeTracker::Serialize and Read the old
// CascadeTracker::Deserialize with dgim::Read, over a plain TrackerText
// instead of a tracker's stream blocks: the same stream operations, the
// same checks.  Read also records where each token it read lies in the
// text and what kind of field took it, so a test can tell which input
// classes the new parser rejects and this one reads.
#ifndef HORIZON_TESTS_REFERENCE_TRACKER_CODEC_H_
#define HORIZON_TESTS_REFERENCE_TRACKER_CODEC_H_

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stream/cascade_tracker.h"
#include "stream/exponential_histogram.h"

namespace horizon::stream::reference {

/// One window as the blob carries it.
struct WindowText {
  uint64_t total = 0;
  double last_t = 0.0;
  std::vector<std::pair<double, uint64_t>> buckets;  ///< (newest, size), oldest first
};

/// One engagement stream as the blob carries it.
struct StreamText {
  uint64_t total = 0;
  double first_age = -1.0;
  double last_age = -1.0;
  double ewma_rate = 0.0;
  double ewma_time = 0.0;
  double age_sum = 0.0;
  double age_comp = 0.0;
  std::vector<std::pair<uint64_t, int>> landmarks;  ///< (count, done)
  std::vector<WindowText> windows;
};

/// A whole `trk v1` blob.
struct TrackerText {
  double creation_time = 0.0;
  std::array<StreamText, kNumEngagementTypes> streams;
};

/// The old Serialize: `t` in the layout of `config` (one landmark pair
/// per landmark age, one window per window length), at precision 17.
inline std::string Write(const TrackerText& t, const TrackerConfig& config) {
  std::ostringstream os;
  os.precision(17);
  os << "trk v1\n";
  os << t.creation_time << " " << config.window_lengths.size() << " "
     << config.landmark_ages.size() << "\n";
  for (const StreamText& s : t.streams) {
    os << s.total << " " << s.first_age << " " << s.last_age << " " << s.ewma_rate
       << " " << s.ewma_time << " " << s.age_sum << " " << s.age_comp << "\n";
    for (const auto& [count, done] : s.landmarks) os << count << " " << done << " ";
    os << "\n";
    os << config.window_lengths.size() << "\n";
    for (const WindowText& w : s.windows) {
      os << w.total << " " << w.last_t << " " << w.buckets.size() << "\n";
      for (const auto& [newest, size] : w.buckets) os << newest << " " << size << "\n";
    }
  }
  return os.str();
}

/// The kind of field a token was read into.
enum class FieldKind { kWord, kUnsigned, kSigned, kFloating };

/// A token Read took: the bytes [begin, end) of the text.
struct Token {
  FieldKind kind;
  size_t begin;
  size_t end;
};

namespace detail {

inline bool LandmarkDone(uint64_t total, double last_age, double landmark_age) {
  return total > 0 && last_age > landmark_age;
}

inline bool PlausibleScalars(uint64_t total, double first_age, double last_age,
                             double ewma_rate, double ewma_time, double age_sum,
                             double age_comp, double ewma_tau) {
  if (total == 0) {
    return first_age == -1.0 && last_age == -1.0 && ewma_rate == 0.0 &&
           ewma_time == 0.0 && age_sum == 0.0 && age_comp == 0.0;
  }
  const double n = static_cast<double>(total);
  const double rate_slack =
      1.0 + 4.0 * (n + 1.0) * std::numeric_limits<double>::epsilon();
  const double sum_slack = 1e-9 * n * last_age;
  return std::isfinite(last_age) && first_age >= 0.0 && first_age <= last_age &&
         ewma_time == last_age && ewma_rate >= 0.0 &&
         ewma_rate <= n / ewma_tau * rate_slack &&
         age_sum >= n * first_age - sum_slack &&
         age_sum <= n * last_age + sum_slack && std::abs(age_comp) <= sum_slack;
}

inline bool PlausibleLandmark(uint64_t total, double first_age, double last_age,
                              double landmark_age, uint64_t count, int done) {
  const bool passed = LandmarkDone(total, last_age, landmark_age);
  if (done != (passed ? 1 : 0)) return false;
  if (!passed) return count == 0;
  return first_age <= landmark_age ? count >= 1 && count < total : count == 0;
}

/// operator>> into `value`, recording the token it took.
class Tokens {
 public:
  Tokens(const std::string& text, std::vector<Token>* tokens)
      : text_(text), is_(text), tokens_(tokens) {}

  template <typename T>
  bool Get(T* value) {
    if (is_.eof()) return false;
    size_t begin = static_cast<size_t>(is_.tellg());
    if (!(is_ >> *value)) return false;
    const size_t end = is_.eof() ? text_.size() : static_cast<size_t>(is_.tellg());
    while (begin < end && std::isspace(static_cast<unsigned char>(text_[begin]))) ++begin;
    FieldKind kind = FieldKind::kWord;
    if constexpr (std::is_floating_point_v<T>) {
      kind = FieldKind::kFloating;
    } else if constexpr (std::is_unsigned_v<T>) {
      kind = FieldKind::kUnsigned;
    } else if constexpr (std::is_integral_v<T>) {
      kind = FieldKind::kSigned;
    }
    if (tokens_ != nullptr) tokens_->push_back({kind, begin, end});
    return true;
  }

  template <typename... T>
  bool GetAll(T*... values) {
    return (Get(values) && ...);
  }

 private:
  const std::string& text_;
  std::istringstream is_;
  std::vector<Token>* tokens_;
};

/// The old dgim::Read.
inline bool ReadWindow(Tokens* is, size_t max_per_size, WindowText* out) {
  WindowText parsed;
  size_t num_buckets = 0;
  if (!is->GetAll(&parsed.total, &parsed.last_t, &num_buckets)) return false;
  if (num_buckets > 64 * (max_per_size + 1)) return false;
  uint64_t sum = 0;
  size_t run = 0;
  int last_log2 = 64;
  for (size_t i = 0; i < num_buckets; ++i) {
    double newest = 0.0;
    uint64_t size = 0;
    if (!is->GetAll(&newest, &size) || !std::isfinite(newest)) return false;
    if (!std::has_single_bit(size)) return false;
    const int log2 = std::countr_zero(size);
    if ((i > 0 && newest < parsed.buckets.back().first) || newest > parsed.last_t ||
        size > parsed.total - sum || (i > 0 && log2 > last_log2)) {
      return false;
    }
    run = i > 0 && log2 == last_log2 ? run + 1 : 1;
    if (run > max_per_size) return false;
    sum += size;
    last_log2 = log2;
    parsed.buckets.emplace_back(newest, size);
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace detail

/// The old Deserialize: whether a tracker of layout `config` accepts
/// `text`, and what it reads.  Fills `out` and appends every token read
/// to `tokens` (when not null), also on false.
inline bool Read(const std::string& text, const TrackerConfig& config, TrackerText* out,
                 std::vector<Token>* tokens = nullptr) {
  const size_t num_windows = config.window_lengths.size();
  const size_t num_landmarks = config.landmark_ages.size();
  const size_t max_per_size = dgim::MaxPerSize(config.epsilon);
  detail::Tokens is(text, tokens);
  std::string magic, version;
  if (!is.GetAll(&magic, &version) || magic != "trk" || version != "v1") return false;
  TrackerText t;
  size_t blob_windows = 0, blob_landmarks = 0;
  if (!is.GetAll(&t.creation_time, &blob_windows, &blob_landmarks)) return false;
  if (!std::isfinite(t.creation_time) || blob_windows != num_windows ||
      blob_landmarks != num_landmarks) {
    return false;
  }
  for (StreamText& s : t.streams) {
    if (!is.GetAll(&s.total, &s.first_age, &s.last_age, &s.ewma_rate, &s.ewma_time,
                   &s.age_sum, &s.age_comp)) {
      return false;
    }
    if (!detail::PlausibleScalars(s.total, s.first_age, s.last_age, s.ewma_rate,
                                  s.ewma_time, s.age_sum, s.age_comp, config.ewma_tau)) {
      return false;
    }
    s.landmarks.resize(num_landmarks);
    for (size_t j = 0; j < num_landmarks; ++j) {
      auto& [count, done] = s.landmarks[j];
      if (!is.GetAll(&count, &done) ||
          !detail::PlausibleLandmark(s.total, s.first_age, s.last_age,
                                     config.landmark_ages[j], count, done)) {
        return false;
      }
    }
    size_t n = 0;
    if (!is.Get(&n) || n != num_windows) return false;
    const double last_t = s.total == 0 ? dgim::kNoEventTime : s.last_age;
    s.windows.resize(num_windows);
    for (WindowText& w : s.windows) {
      if (!detail::ReadWindow(&is, max_per_size, &w) || w.total != s.total ||
          w.last_t != last_t || w.buckets.size() >= std::numeric_limits<uint32_t>::max()) {
        return false;
      }
    }
  }
  *out = std::move(t);
  return true;
}

}  // namespace horizon::stream::reference

#endif  // HORIZON_TESTS_REFERENCE_TRACKER_CODEC_H_
