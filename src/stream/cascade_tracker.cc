#include "stream/cascade_tracker.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"

namespace horizon::stream {

const char* EngagementTypeName(EngagementType type) {
  switch (type) {
    case EngagementType::kView: return "view";
    case EngagementType::kShare: return "share";
    case EngagementType::kComment: return "comment";
    case EngagementType::kReaction: return "reaction";
  }
  return "unknown";
}

TrackerLayout::TrackerLayout(TrackerConfig tracker_config)
    : config(std::move(tracker_config)),
      max_per_size(dgim::MaxPerSize(config.epsilon)) {
  HORIZON_CHECK(!config.window_lengths.empty());
  HORIZON_CHECK_LE(config.window_lengths.size(), kMaxTrackerLayout);
  HORIZON_CHECK_LE(config.landmark_ages.size(), kMaxTrackerLayout);
  for (const double w : config.window_lengths) HORIZON_CHECK_GT(w, 0.0);
  HORIZON_CHECK_GT(config.ewma_tau, 0.0);
  HORIZON_CHECK(config.epsilon > 0.0 && config.epsilon <= 1.0);
}

void CascadeTracker::StreamState::Add(double age, const TrackerLayout& layout) {
  HORIZON_CHECK_GE(age, last_age);
  const TrackerConfig& config = layout.config;
  // Finalize landmarks that this event's age has passed: their count is the
  // total *before* this event, because the landmark is "events with age <=
  // landmark".
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    const uint8_t bit = static_cast<uint8_t>(1u << j);
    if ((landmark_done & bit) == 0 && age > config.landmark_ages[j]) {
      landmark_counts[j] = total;
      landmark_done |= bit;
    }
  }
  for (size_t i = 0; i < config.window_lengths.size(); ++i) {
    dgim::Add(&windows[i], age, config.window_lengths[i], layout.max_per_size);
  }
  ++total;
  age_sum.Add(age);
  if (first_age < 0.0) first_age = age;
  last_age = age;
  // EWMA intensity estimator: decay, then add the unit impulse 1/tau.
  const double dt = age - ewma_time;
  ewma_rate = ewma_rate * std::exp(-dt / config.ewma_tau) + 1.0 / config.ewma_tau;
  ewma_time = age;
}

void CascadeTracker::StreamState::Snapshot(double age, const TrackerLayout& layout,
                                           StreamSnapshot* out) const {
  const TrackerConfig& config = layout.config;
  out->total = total;
  for (size_t i = 0; i < config.window_lengths.size(); ++i) {
    out->window_counts[i] = dgim::Count(windows[i], age, config.window_lengths[i]);
    out->window_rates[i] =
        static_cast<double>(out->window_counts[i]) / config.window_lengths[i];
  }
  for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
    // If the landmark has been passed, report the finalized value; otherwise
    // every event so far happened before the landmark age.
    const bool done = (landmark_done >> j) & 1u;
    out->landmark_counts[j] =
        (done && age > config.landmark_ages[j]) ? landmark_counts[j] : total;
  }
  out->ewma_rate = ewma_rate * std::exp(-(age - ewma_time) / config.ewma_tau);
  out->mean_event_age =
      total > 0 ? age_sum.value() / static_cast<double>(total) : 0.0;
  out->first_event_age = first_age;
  out->last_event_age = last_age;
}

CascadeTracker::CascadeTracker(double creation_time,
                               std::shared_ptr<const TrackerLayout> layout)
    : layout_(std::move(layout)), creation_time_(creation_time) {
  HORIZON_CHECK(layout_ != nullptr);
}

CascadeTracker::CascadeTracker(double creation_time, const TrackerConfig& config)
    : CascadeTracker(creation_time, std::make_shared<const TrackerLayout>(config)) {}

bool CascadeTracker::Accepts(EngagementType type, double t) const {
  // The same comparisons Observe checks: the window counters require
  // ages non-decreasing per stream.
  return t >= creation_time_ &&
         t - creation_time_ >= streams_[static_cast<int>(type)].last_age;
}

void CascadeTracker::Observe(EngagementType type, double t) {
  HORIZON_CHECK_GE(t, creation_time_);
  streams_[static_cast<int>(type)].Add(t - creation_time_, *layout_);
}

uint64_t CascadeTracker::TotalCount(EngagementType type) const {
  return streams_[static_cast<int>(type)].total;
}

size_t CascadeTracker::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const StreamState& stream : streams_) {
    for (const auto& window : stream.windows) {
      bytes += window.capacity() * sizeof(dgim::Bucket);
    }
  }
  return bytes;
}

namespace {

/// The last time a window of a stream with these events serializes.
double WindowLastTime(uint64_t total, double last_age) {
  return total == 0 ? dgim::kNoEventTime : last_age;
}

/// Whether some sequence of Observe calls leaves a stream with these
/// scalar fields: an empty stream holds the fresh values; otherwise
/// 0 <= first_age <= last_age = ewma_time, the EWMA rate lies in
/// [0, total / ewma_tau] (each event adds 1/tau, decay only shrinks it),
/// and the age sum in [total * first_age, total * last_age].  The two
/// bounds allow rounding: each EWMA step rounds twice, the Kahan sum is
/// off by a few ulps of its value.  Written so that NaN fails every test.
bool PlausibleScalars(uint64_t total, double first_age, double last_age,
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

/// Whether StreamState::Add leaves a landmark at age `landmark_age` of a
/// stream with these scalars at (count, done).  The landmark is done
/// exactly when an event past it has arrived: total > 0 and last_age >
/// landmark_age.  A done count is the number of events at or before the
/// landmark, so it is 0 when the first event came after it and lies in
/// [1, total - 1] otherwise.  A landmark that is not done counts 0.
bool PlausibleLandmark(uint64_t total, double first_age, double last_age,
                       double landmark_age, uint64_t count, int done) {
  const bool passed = total > 0 && last_age > landmark_age;
  if (done != (passed ? 1 : 0)) return false;
  if (!passed) return count == 0;
  return first_age <= landmark_age ? count >= 1 && count < total : count == 0;
}

}  // namespace

std::string CascadeTracker::Serialize() const {
  const TrackerConfig& config = layout_->config;
  std::ostringstream os;
  os.precision(17);
  os << "trk v1\n";
  os << creation_time_ << " " << config.window_lengths.size() << " "
     << config.landmark_ages.size() << "\n";
  for (const StreamState& stream : streams_) {
    os << stream.total << " " << stream.first_age << " " << stream.last_age << " "
       << stream.ewma_rate << " " << stream.ewma_time << " "
       << stream.age_sum.value() << " " << stream.age_sum.compensation() << "\n";
    for (size_t j = 0; j < config.landmark_ages.size(); ++j) {
      os << stream.landmark_counts[j] << " " << ((stream.landmark_done >> j) & 1u)
         << " ";
    }
    os << "\n";
    // The format gives every window a total and last time; they are the
    // stream's, and Deserialize rejects a blob where they differ.
    os << config.window_lengths.size() << "\n";
    for (size_t i = 0; i < config.window_lengths.size(); ++i) {
      dgim::Write(os, stream.total, WindowLastTime(stream.total, stream.last_age),
                  stream.windows[i]);
    }
  }
  return os.str();
}

bool CascadeTracker::Deserialize(const std::string& text) {
  const TrackerConfig& config = layout_->config;
  const size_t num_windows = config.window_lengths.size();
  const size_t num_landmarks = config.landmark_ages.size();
  std::istringstream is(text);
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "trk" || version != "v1") return false;
  double creation_time = 0.0;
  size_t blob_windows = 0, blob_landmarks = 0;
  if (!(is >> creation_time >> blob_windows >> blob_landmarks)) return false;
  if (!std::isfinite(creation_time) || blob_windows != num_windows ||
      blob_landmarks != num_landmarks) {
    return false;
  }
  std::array<StreamState, kNumEngagementTypes> streams;
  for (StreamState& stream : streams) {
    double sum = 0.0, comp = 0.0;
    if (!(is >> stream.total >> stream.first_age >> stream.last_age >>
          stream.ewma_rate >> stream.ewma_time >> sum >> comp)) {
      return false;
    }
    if (!PlausibleScalars(stream.total, stream.first_age, stream.last_age,
                          stream.ewma_rate, stream.ewma_time, sum, comp,
                          config.ewma_tau)) {
      return false;
    }
    stream.age_sum.Restore(sum, comp);
    for (size_t j = 0; j < num_landmarks; ++j) {
      int done = 0;
      if (!(is >> stream.landmark_counts[j] >> done) ||
          !PlausibleLandmark(stream.total, stream.first_age, stream.last_age,
                             config.landmark_ages[j], stream.landmark_counts[j],
                             done)) {
        return false;
      }
      stream.landmark_done |= static_cast<uint8_t>(done << j);
    }
    size_t n = 0;
    if (!(is >> n) || n != num_windows) return false;
    // Windows keep no total or last time of their own, so each one the
    // blob carries must be the stream's; dgim::Read has checked its
    // buckets against them.
    const double last_t = WindowLastTime(stream.total, stream.last_age);
    for (size_t i = 0; i < num_windows; ++i) {
      uint64_t window_total = 0;
      double window_last_t = 0.0;
      if (!dgim::Read(is, layout_->max_per_size, &window_total, &window_last_t,
                      &stream.windows[i]) ||
          window_total != stream.total || window_last_t != last_t) {
        return false;
      }
    }
  }
  creation_time_ = creation_time;
  streams_ = std::move(streams);
  return true;
}

TrackerSnapshot CascadeTracker::Snapshot(double s) const {
  HORIZON_CHECK_GE(s, creation_time_);
  TrackerSnapshot snap;
  snap.age = s - creation_time_;
  snap.num_windows = layout_->config.window_lengths.size();
  for (int i = 0; i < kNumEngagementTypes; ++i) {
    streams_[i].Snapshot(snap.age, *layout_, &snap.streams[i]);
  }
  return snap;
}

}  // namespace horizon::stream
