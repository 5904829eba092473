// An iostream codec of the `trk v2` tracker blob, written apart from the
// to_chars / from_chars codec the tracker runs (common/text_codec.h): the
// oracle that codec must match (fuzz_deserialize_test, FuzzTrackerCodec.*).
//
// Write and Read work on a plain TrackerText, not on a tracker's stream
// blocks, and include and call no code of the library: the format and its
// checks are written out here a second time.  The layout they take is any
// type with the fields of stream::TrackerConfig (window_lengths,
// landmark_ages, ewma_tau, epsilon).  Read also records where each token it
// read lies in the text and what kind of field took it, so a test can
// tell which input classes the text_codec parser rejects and this one
// reads.
#ifndef HORIZON_TESTS_REFERENCE_TRACKER_CODEC_H_
#define HORIZON_TESTS_REFERENCE_TRACKER_CODEC_H_

#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace horizon::stream::reference {

/// One window's buckets, oldest first: (newest event time, events).
using WindowText = std::vector<std::pair<double, uint64_t>>;

/// One engagement stream as the blob carries it.  An empty stream
/// (total 0) carries nothing else.
struct StreamText {
  uint64_t total = 0;
  double first_age = 0.0;
  double last_age = 0.0;
  double ewma_rate = 0.0;
  double age_sum = 0.0;
  double age_comp = 0.0;
  std::vector<uint64_t> landmarks;  ///< one count per landmark age
  std::vector<WindowText> windows;  ///< one per window length
};

/// A whole `trk v2` blob.
struct TrackerText {
  double creation_time = 0.0;
  std::array<StreamText, 4> streams;
};

/// `t` in the layout `config`, doubles at precision 17: the header
/// "trk v2", the creation time and the window and landmark counts; per
/// stream its total, alone when 0, else followed on the same line by its
/// first and last event ages, EWMA rate, age sum and compensation and its
/// landmark counts, then per window its bucket count and one "newest
/// size" line per bucket.
template <typename Layout>
std::string Write(const TrackerText& t, const Layout& config) {
  std::ostringstream os;
  os.precision(17);
  os << "trk v2\n";
  os << t.creation_time << " " << config.window_lengths.size() << " "
     << config.landmark_ages.size() << "\n";
  for (const StreamText& s : t.streams) {
    os << s.total;
    if (s.total == 0) {
      os << "\n";
      continue;
    }
    os << " " << s.first_age << " " << s.last_age << " " << s.ewma_rate << " "
       << s.age_sum << " " << s.age_comp;
    for (const uint64_t count : s.landmarks) os << " " << count;
    os << "\n";
    for (const WindowText& buckets : s.windows) {
      os << buckets.size() << "\n";
      for (const auto& [newest, size] : buckets) os << newest << " " << size << "\n";
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

/// Whether some sequence of events leaves a non-empty stream with these
/// scalars: 0 <= first_age <= last_age (finite), the EWMA rate in
/// [0, total / ewma_tau] and the age sum in [total * first_age,
/// total * last_age], both up to rounding slack.
inline bool PlausibleScalars(const StreamText& s, double ewma_tau) {
  const double n = static_cast<double>(s.total);
  const double rate_slack =
      1.0 + 4.0 * (n + 1.0) * std::numeric_limits<double>::epsilon();
  const double sum_slack = 1e-9 * n * s.last_age;
  return std::isfinite(s.last_age) && s.first_age >= 0.0 && s.first_age <= s.last_age &&
         s.ewma_rate >= 0.0 && s.ewma_rate <= n / ewma_tau * rate_slack &&
         s.age_sum >= n * s.first_age - sum_slack &&
         s.age_sum <= n * s.last_age + sum_slack && std::abs(s.age_comp) <= sum_slack;
}

/// Whether a landmark at `landmark_age` of the non-empty stream `s` can
/// count `count`: 0 until an event past it arrives; then the events at or
/// before it, 0 if the first event came after it, else in [1, total - 1].
inline bool PlausibleLandmark(const StreamText& s, double landmark_age, uint64_t count) {
  if (s.last_age <= landmark_age) return count == 0;
  return s.first_age <= landmark_age ? count >= 1 && count < s.total : count == 0;
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

/// One window of a stream of `total` events, the last at `last_t`: at
/// most 64 * (max_per_size + 1) buckets; finite, non-decreasing times no
/// later than `last_t`; power-of-two sizes summing to at most `total`,
/// non-increasing toward newer buckets, at most `max_per_size` of each.
inline bool ReadWindow(Tokens* is, size_t max_per_size, uint64_t total, double last_t,
                       WindowText* out) {
  WindowText parsed;
  size_t num_buckets = 0;
  if (!is->Get(&num_buckets) || num_buckets > 64 * (max_per_size + 1)) return false;
  uint64_t sum = 0;
  size_t run = 0;
  int last_log2 = 64;
  for (size_t i = 0; i < num_buckets; ++i) {
    double newest = 0.0;
    uint64_t size = 0;
    if (!is->GetAll(&newest, &size) || !std::isfinite(newest)) return false;
    if (!std::has_single_bit(size)) return false;
    const int log2 = std::countr_zero(size);
    if ((i > 0 && newest < parsed.back().first) || newest > last_t ||
        size > total - sum || (i > 0 && log2 > last_log2)) {
      return false;
    }
    run = i > 0 && log2 == last_log2 ? run + 1 : 1;
    if (run > max_per_size) return false;
    sum += size;
    last_log2 = log2;
    parsed.emplace_back(newest, size);
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace detail

/// Whether a tracker of layout `config` accepts `text`, and what it reads.
/// Fills `out` and appends every token read to `tokens` (when not null),
/// also on false.
template <typename Layout>
bool Read(const std::string& text, const Layout& config, TrackerText* out,
          std::vector<Token>* tokens = nullptr) {
  const size_t num_windows = config.window_lengths.size();
  const size_t num_landmarks = config.landmark_ages.size();
  const auto max_per_size = static_cast<size_t>(std::ceil(1.0 / config.epsilon)) + 1;
  detail::Tokens is(text, tokens);
  std::string magic, version;
  if (!is.GetAll(&magic, &version) || magic != "trk" || version != "v2") return false;
  TrackerText t;
  size_t blob_windows = 0, blob_landmarks = 0;
  if (!is.GetAll(&t.creation_time, &blob_windows, &blob_landmarks)) return false;
  if (!std::isfinite(t.creation_time) || blob_windows != num_windows ||
      blob_landmarks != num_landmarks) {
    return false;
  }
  for (StreamText& s : t.streams) {
    if (!is.Get(&s.total)) return false;
    if (s.total == 0) continue;
    if (!is.GetAll(&s.first_age, &s.last_age, &s.ewma_rate, &s.age_sum, &s.age_comp) ||
        !detail::PlausibleScalars(s, config.ewma_tau)) {
      return false;
    }
    s.landmarks.resize(num_landmarks);
    for (size_t j = 0; j < num_landmarks; ++j) {
      if (!is.Get(&s.landmarks[j]) ||
          !detail::PlausibleLandmark(s, config.landmark_ages[j], s.landmarks[j])) {
        return false;
      }
    }
    s.windows.resize(num_windows);
    for (WindowText& w : s.windows) {
      if (!detail::ReadWindow(&is, max_per_size, s.total, s.last_age, &w)) return false;
    }
  }
  *out = std::move(t);
  return true;
}

}  // namespace horizon::stream::reference

#endif  // HORIZON_TESTS_REFERENCE_TRACKER_CODEC_H_
