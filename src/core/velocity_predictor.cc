#include "core/velocity_predictor.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"

namespace horizon::core {

VelocityHawkesPredictor::VelocityHawkesPredictor()
    : VelocityHawkesPredictor(Options()) {}

VelocityHawkesPredictor::VelocityHawkesPredictor(const Options& options)
    : options_(options) {
  HORIZON_CHECK_GT(options.alpha_min, 0.0);
  HORIZON_CHECK_GT(options.alpha_max, options.alpha_min);
}

double VelocityHawkesPredictor::EstimateIntensity(
    const stream::TrackerSnapshot& snapshot) const {
  const auto& views = snapshot.views();
  if (options_.use_ewma) return views.ewma_rate;
  HORIZON_CHECK_LT(options_.window_index, snapshot.num_windows);
  return views.window_rates[options_.window_index];
}

double VelocityHawkesPredictor::EstimateAlpha(
    const stream::TrackerSnapshot& snapshot) const {
  const auto& views = snapshot.views();
  if (views.total == 0 || views.mean_event_age <= 0.0) return options_.alpha_max;
  return Clamp(1.0 / views.mean_event_age, options_.alpha_min, options_.alpha_max);
}

double VelocityHawkesPredictor::PredictIncrement(
    const stream::TrackerSnapshot& snapshot, double delta) const {
  HORIZON_CHECK_GE(delta, 0.0);
  const double lambda_hat = EstimateIntensity(snapshot);
  if (lambda_hat <= 0.0 || delta == 0.0) return 0.0;
  const double alpha_hat = EstimateAlpha(snapshot);
  const double factor =
      std::isinf(delta) ? 1.0 : -std::expm1(-alpha_hat * delta);
  return lambda_hat / alpha_hat * factor;
}

std::vector<double> VelocityHawkesPredictor::PredictIncrementBatch(
    const std::vector<stream::TrackerSnapshot>& snapshots,
    const std::vector<double>& deltas) const {
  HORIZON_CHECK_EQ(deltas.size(), snapshots.size());
  std::vector<double> out(snapshots.size());
  for (size_t i = 0; i < snapshots.size(); ++i) {
    out[i] = PredictIncrement(snapshots[i], deltas[i]);
  }
  return out;
}

}  // namespace horizon::core
