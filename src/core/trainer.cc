#include "core/trainer.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace horizon::core {

double TrueIncrement(const datagen::Cascade& cascade, double s, double delta) {
  const size_t n_s = cascade.ViewsBefore(s);
  const size_t n_t = std::isinf(delta) ? cascade.TotalViews()
                                       : cascade.ViewsBefore(s + delta);
  return static_cast<double>(n_t - n_s);
}

ExampleSet BuildExampleSet(const datagen::SyntheticDataset& dataset,
                           const std::vector<size_t>& cascade_indices,
                           const features::FeatureExtractor& extractor,
                           const ExampleSetOptions& options) {
  HORIZON_CHECK(!options.reference_horizons.empty());
  HORIZON_CHECK_GT(options.samples_per_cascade, 0);
  HORIZON_CHECK_GT(options.min_prediction_age, 0.0);
  HORIZON_CHECK_GT(options.max_prediction_age, options.min_prediction_age);

  const double log_min = std::log(options.min_prediction_age);
  const double log_max = std::log(options.max_prediction_age);
  const size_t samples = static_cast<size_t>(options.samples_per_cascade);
  const size_t num_examples = cascade_indices.size() * samples;
  const size_t num_horizons = options.reference_horizons.size();

  // Serial pre-pass: draw every prediction time in the original order so
  // the output is bit-identical regardless of how the expensive replay
  // work below is scheduled across threads.
  Rng rng(options.seed);
  std::vector<double> pred_times(num_examples);
  for (size_t e = 0; e < num_examples; ++e) {
    HORIZON_CHECK_LT(cascade_indices[e / samples], dataset.cascades.size());
    pred_times[e] = std::exp(rng.Uniform(log_min, log_max));
  }

  ExampleSet out;
  out.x = gbdt::DataMatrix(num_examples, extractor.schema().size());
  out.log1p_increments.assign(num_horizons, std::vector<double>(num_examples));
  out.alpha_targets.resize(num_examples);
  out.refs.resize(num_examples);

  // Replay + feature extraction + target construction per example; every
  // example writes only its own slots.
  ParallelFor(num_examples, 4, [&](size_t begin, size_t end) {
    AlphaEstimatorOptions alpha_options;
    alpha_options.gamma = options.alpha_quantile_gamma;
    std::vector<double> view_times;
    for (size_t e = begin; e < end; ++e) {
      const size_t ci = cascade_indices[e / samples];
      const datagen::Cascade& cascade = dataset.cascades[ci];
      const datagen::PageProfile& page = dataset.PageOf(cascade.post);
      const double s = pred_times[e];

      const auto snapshot = extractor.ReplaySnapshot(cascade, s);
      extractor.ExtractIntoStrided(page, cascade.post, snapshot, out.x.MutableRow(e), 1);

      for (size_t i = 0; i < num_horizons; ++i) {
        const double inc = TrueIncrement(cascade, s, options.reference_horizons[i]);
        out.log1p_increments[i][e] = std::log1p(inc);
      }

      // Alpha target from the view times after s.  When nothing is
      // observed after s, fall back to the full cascade; 0 means
      // inestimable (the predictor clamps).
      view_times.clear();
      view_times.reserve(cascade.views.size());
      for (const auto& e2 : cascade.views) view_times.push_back(e2.time);
      alpha_options.start_time = s;
      double alpha = EstimateAlpha(options.alpha_kind, view_times, alpha_options);
      if (alpha <= 0.0) {
        alpha_options.start_time = 0.0;
        alpha = EstimateAlpha(options.alpha_kind, view_times, alpha_options);
      }
      out.alpha_targets[e] = alpha;

      ExampleRef& ref = out.refs[e];
      ref.cascade_index = ci;
      ref.prediction_age = s;
      ref.n_s = static_cast<double>(cascade.ViewsBefore(s));
    }
  });
  return out;
}

}  // namespace horizon::core
