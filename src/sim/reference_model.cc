#include "sim/reference_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "gbdt/gbdt.h"
#include "pointprocess/transform.h"

namespace horizon::sim {

namespace {

/// `model`'s raw prediction for `row` from its trees alone: the base
/// score, then learning_rate * each tree's leaf in boosting order, the
/// sum GbdtRegressor::Fit accumulates.  Shares no code with BlockForest.
double TreeWalk(const gbdt::GbdtRegressor& model, const float* row) {
  double out = model.base_score();
  for (const gbdt::RegressionTree& tree : model.trees()) {
    out += model.params().learning_rate * tree.Predict(row);
  }
  return out;
}

}  // namespace

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
                                                   extractor_->tracker_layout()),
                            page, post})
          .second;
  return inserted ? StatusCode::kOk : StatusCode::kAlreadyExists;
}

StatusCode ReferenceService::IngestCode(int64_t id, stream::EngagementType type,
                                        double t) {
  // The service's checks, in its order: a time that is NaN or past
  // kMaxAbsTime before the id lookup, then the tracker's ordering rule.
  if (!(std::abs(t) <= serving::kMaxAbsTime)) return StatusCode::kInvalidArgument;
  const auto it = items_.find(id);
  if (it == items_.end()) return StatusCode::kNotFound;
  if (!it->second.tracker.Accepts(type, t)) return StatusCode::kInvalidArgument;
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
  out->alpha = TreeWalkAlpha(out->row.data());
  out->increment = TreeWalkIncrement(out->row.data(), out->alpha, delta);
  out->predicted = out->observed + out->increment;
  return StatusCode::kOk;
}

double ReferenceService::TreeWalkAlpha(const float* row) const {
  const core::HawkesPredictorParams& params = model_->params();
  return Clamp(std::exp(TreeWalk(model_->alpha_model(), row)),
               params.alpha_min, params.alpha_max);
}

double ReferenceService::TreeWalkIncrement(const float* row, double alpha,
                                           double delta) const {
  if (delta == 0.0) return 0.0;
  std::vector<double> increments(model_->num_reference_horizons());
  for (size_t i = 0; i < increments.size(); ++i) {
    increments[i] = std::max(
        std::expm1(TreeWalk(model_->count_model(i), row)), 0.0);
  }
  return model_->CombineIncrement(increments.data(), increments.size(), alpha,
                                  delta);
}

std::vector<std::pair<int64_t, RefAnswer>> ReferenceService::Scan(
    double s, double delta, size_t* after_s) const {
  std::vector<std::pair<int64_t, RefAnswer>> out;
  *after_s = 0;
  for (const auto& [id, item] : items_) {
    if (s < item.tracker.creation_time()) continue;  // not yet live
    if (item.tracker.HasEventAfter(s)) {
      ++*after_s;
      continue;
    }
    RefAnswer answer;
    const StatusCode code = Answer(id, s, delta, &answer);
    if (code == StatusCode::kOk) out.emplace_back(id, std::move(answer));
  }
  return out;
}

size_t ReferenceService::Retire(double now, size_t* after_now) {
  size_t retired = 0;
  *after_now = 0;
  for (auto it = items_.begin(); it != items_.end();) {
    const Item& item = it->second;
    if (now < item.tracker.creation_time()) {
      ++it;
      continue;
    }
    if (item.tracker.HasEventAfter(now)) {
      ++*after_now;
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
      const double alpha = TreeWalkAlpha(row.data());
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
