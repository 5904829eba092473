// Gradient boosted decision trees for least-squares regression --
// the point-predictor family used by the paper (stochastic gradient
// boosting, Friedman [20]).
#ifndef HORIZON_GBDT_GBDT_H_
#define HORIZON_GBDT_GBDT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gbdt/block_forest.h"
#include "gbdt/dataset.h"
#include "gbdt/flat_forest.h"
#include "gbdt/quantized_forest.h"
#include "gbdt/tree.h"

namespace horizon::gbdt {

/// Hyper-parameters of the boosted ensemble.
struct GbdtParams {
  int num_trees = 120;
  double learning_rate = 0.1;
  double subsample = 0.8;    ///< row fraction per tree (stochastic boosting)
  int max_bins = 255;
  TreeParams tree;           ///< per-tree parameters
  uint64_t seed = 17;        ///< subsampling seed
};

/// Trained gradient-boosted regression model.
///
/// Training:  GbdtRegressor model(params);  model.Fit(x, y);
/// Inference: model.Predict(row_ptr)  -- O(num_trees * depth), constant in
/// any notion of "history length", which is what the paper's Fig. 2
/// computation-cost claim rests on.
class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtParams params = {});

  /// Fits the ensemble to (x, y) with squared-error loss.
  /// y.size() must equal x.num_rows() (> 0).
  void Fit(const DataMatrix& x, const std::vector<double>& y);

  /// Fits with early stopping: after each tree, the validation MSE is
  /// evaluated; training stops once it has not improved for
  /// `early_stopping_rounds` consecutive trees, and the ensemble is
  /// truncated to the best iteration.  Returns the number of trees kept.
  int FitWithValidation(const DataMatrix& x, const std::vector<double>& y,
                        const DataMatrix& x_valid, const std::vector<double>& y_valid,
                        int early_stopping_rounds = 10);

  /// Predicts one dense feature row (size num_features) through the
  /// blocked forest's scalar kernel; the flat forest serves only
  /// ensembles too deep to block.  Bit-identical either way.
  double Predict(const float* row) const;

  /// Predicts every row of a matrix through the vectorized blocked-forest
  /// kernel (runtime-dispatched scalar/SSE/AVX2; falls back to the flat
  /// forest for over-deep ensembles).  Bit-identical to per-row Predict.
  std::vector<double> PredictBatch(const DataMatrix& x) const;

  /// Same contract over a column-major SoA batch -- the feature extractor
  /// writes this layout directly, so serving feeds the SIMD kernels with
  /// no transposition.
  std::vector<double> PredictBatch(const ExampleBatch& x) const;

  /// Predicts through the quantized (uint16 integer-compare) forest.
  /// Bit-identical to PredictBatch for the built-in rank-space quantizer
  /// (see quantized_forest.h); falls back to the float path when the
  /// quantized form is unavailable.
  std::vector<double> PredictBatchQuantized(const ExampleBatch& x) const;

  /// Total split gain attributed to each feature during training
  /// (normalized to sum to 1; zeros if never split).
  std::vector<double> GainImportance() const;

  bool trained() const { return trained_; }
  size_t num_features() const { return num_features_; }
  const GbdtParams& params() const { return params_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double base_score() const { return base_score_; }
  /// The compiled inference forest (valid once trained).
  const FlatForest& flat_forest() const { return flat_; }
  /// The vectorized blocked layout (uncompiled for over-deep ensembles).
  const BlockForest& block_forest() const { return blocked_; }
  /// The quantized variant (uncompiled when the blocked form is, or when
  /// a feature has too many distinct thresholds).
  const QuantizedForest& quantized_forest() const { return quant_; }

  /// Serializes the trained model to a portable ASCII string.
  std::string Serialize() const;
  /// Restores a model from Serialize() output.  Returns false on parse
  /// failure (model left untrained).
  bool Deserialize(const std::string& text);

 private:
  void FitInternal(const DataMatrix& x, const std::vector<double>& y,
                   const DataMatrix* x_valid, const std::vector<double>* y_valid,
                   int early_stopping_rounds);
  /// Rebuilds blocked_/quant_ from flat_ (end of Fit/Deserialize).
  void CompileInferenceForests();

  GbdtParams params_;
  bool trained_ = false;
  size_t num_features_ = 0;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  std::vector<double> gains_;
  FlatForest flat_;        ///< compiled at the end of Fit/Deserialize
  BlockForest blocked_;    ///< vectorized layout derived from flat_
  QuantizedForest quant_;  ///< uint16 rank-space variant of blocked_
};

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_GBDT_H_
