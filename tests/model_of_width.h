// A small trained HawkesPredictor over rows of any width.  A
// PredictionService refuses a model that reads rows of another width than
// its extractor writes, so a test that builds a service over another
// tracker layout (and so another schema width) builds its model here.
#ifndef HORIZON_TESTS_MODEL_OF_WIDTH_H_
#define HORIZON_TESTS_MODEL_OF_WIDTH_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/hawkes_predictor.h"
#include "gbdt/dataset.h"

namespace horizon::test {

/// Two trees per forest, fit to 64 random rows of `features` columns.
inline core::HawkesPredictor ModelOfWidth(size_t features) {
  constexpr size_t kRows = 64;
  gbdt::DataMatrix x(kRows, features);
  std::vector<std::vector<double>> increments(1, std::vector<double>(kRows));
  std::vector<double> alphas(kRows, 1.0 / kDay);
  Rng rng(features);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t f = 0; f < features; ++f) {
      x.Set(r, f, static_cast<float>(rng.Uniform(0.0, 1.0)));
    }
    increments[0][r] = x.Get(r, 0);
  }
  core::HawkesPredictorParams params;
  params.gbdt_count.num_trees = 2;
  params.gbdt_alpha.num_trees = 2;
  core::HawkesPredictor model(params);
  model.Fit(x, increments, alphas);
  return model;
}

}  // namespace horizon::test

#endif  // HORIZON_TESTS_MODEL_OF_WIDTH_H_
