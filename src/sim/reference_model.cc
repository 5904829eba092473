#include "sim/reference_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "pointprocess/transform.h"

namespace horizon::sim {

ReferenceService::ReferenceService(const core::HawkesPredictor* model,
                                   const features::FeatureExtractor* extractor,
                                   const serving::ServiceConfig& config)
    : model_(model),
      extractor_(extractor),
      idle_retirement_age_(config.idle_retirement_age),
      death_probability_threshold_(config.death_probability_threshold) {}

StatusCode ReferenceService::Register(int64_t id, double creation_time,
                                      const datagen::PageProfile& page,
                                      const datagen::PostProfile& post) {
  const bool inserted =
      items_
          .emplace(id, Item{stream::CascadeTracker(creation_time,
                                                   extractor_->tracker_config()),
                            page, post})
          .second;
  return inserted ? StatusCode::kOk : StatusCode::kAlreadyExists;
}

StatusCode ReferenceService::IngestCode(int64_t id, stream::EngagementType type,
                                        double t) {
  const auto it = items_.find(id);
  if (it == items_.end()) return StatusCode::kNotFound;
  it->second.tracker.Observe(type, t);
  return StatusCode::kOk;
}

StatusCode ReferenceService::Answer(int64_t id, double s, double delta,
                                    RefAnswer* out) const {
  const auto it = items_.find(id);
  if (it == items_.end()) return StatusCode::kNotFound;
  const Item& item = it->second;
  if (s < item.tracker.creation_time()) return StatusCode::kNotYetLive;
  const stream::TrackerSnapshot snapshot = item.tracker.Snapshot(s);
  out->row = extractor_->Extract(item.page, item.post, snapshot);
  out->observed = static_cast<double>(snapshot.views().total);
  out->alpha = FlatAlpha(out->row.data());
  out->increment = FlatIncrement(out->row.data(), out->alpha, delta);
  out->predicted = out->observed + out->increment;
  return StatusCode::kOk;
}

double ReferenceService::FlatAlpha(const float* row) const {
  const core::HawkesPredictorParams& params = model_->params();
  return Clamp(std::exp(model_->alpha_model().flat_forest().Predict(row)),
               params.alpha_min, params.alpha_max);
}

double ReferenceService::FlatIncrement(const float* row, double alpha,
                                       double delta) const {
  if (delta == 0.0) return 0.0;
  std::vector<double> increments(model_->num_reference_horizons());
  for (size_t i = 0; i < increments.size(); ++i) {
    increments[i] = std::max(
        std::expm1(model_->count_model(i).flat_forest().Predict(row)), 0.0);
  }
  return model_->CombineIncrement(increments.data(), increments.size(), alpha,
                                  delta);
}

std::vector<std::pair<int64_t, RefAnswer>> ReferenceService::Scan(
    double s, double delta) const {
  std::vector<std::pair<int64_t, RefAnswer>> out;
  for (const auto& [id, item] : items_) {
    if (s < item.tracker.creation_time()) continue;  // not yet live
    RefAnswer answer;
    const StatusCode code = Answer(id, s, delta, &answer);
    if (code == StatusCode::kOk) out.emplace_back(id, std::move(answer));
  }
  return out;
}

size_t ReferenceService::Retire(double now) {
  size_t retired = 0;
  for (auto it = items_.begin(); it != items_.end();) {
    const Item& item = it->second;
    if (now < item.tracker.creation_time()) {
      ++it;
      continue;
    }
    const stream::TrackerSnapshot snapshot = item.tracker.Snapshot(now);
    const stream::StreamSnapshot& views = snapshot.views();
    bool dead = false;
    if (views.last_event_age >= 0.0) {
      if (snapshot.age - views.last_event_age >= idle_retirement_age_) {
        dead = true;
      }
    } else if (snapshot.age >= idle_retirement_age_) {
      dead = true;
    }
    if (!dead && views.ewma_rate > 0.0) {
      const std::vector<float> row =
          extractor_->Extract(item.page, item.post, snapshot);
      const double alpha = FlatAlpha(row.data());
      const double p_dead = pp::ProbabilityNoNewEvents(
          views.ewma_rate, std::numeric_limits<double>::infinity(), alpha);
      if (p_dead >= death_probability_threshold_) dead = true;
    }
    if (dead) {
      it = items_.erase(it);
      ++retired;
    } else {
      ++it;
    }
  }
  return retired;
}

std::vector<int64_t> ReferenceService::ItemIds() const {
  std::vector<int64_t> ids;
  ids.reserve(items_.size());
  for (const auto& [id, item] : items_) ids.push_back(id);
  return ids;
}

}  // namespace horizon::sim
