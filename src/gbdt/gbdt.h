// Gradient boosted decision trees for least-squares regression --
// the point-predictor family used by the paper (stochastic gradient
// boosting, Friedman [20]).
#ifndef HORIZON_GBDT_GBDT_H_
#define HORIZON_GBDT_GBDT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "gbdt/block_forest.h"
#include "gbdt/dataset.h"
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
/// Inference: model.Predict(row_ptr), or PredictStrided over a batch --
/// O(num_trees * depth) per row, constant in any notion of "history
/// length", which is what the paper's Fig. 2 computation-cost claim
/// rests on.
class GbdtRegressor {
 public:
  explicit GbdtRegressor(GbdtParams params = {});

  /// Fits the ensemble to (x, y) with squared-error loss.
  /// y.size() must equal x.num_rows() (> 0).
  void Fit(const DataMatrix& x, const std::vector<double>& y);

  /// The same fit from x already binned with this model's max_bins, so
  /// that models trained on one matrix share its binning.
  void Fit(const DataMatrix& x, const BinnedDataset& binned,
           const std::vector<double>& y);

  /// Predicts one dense feature row (size num_features): PredictStrided
  /// over one row.
  double Predict(const float* row) const;

  /// The one batch routine: predicts rows laid out at
  /// data[r*row_stride + f*feat_stride] into out[0..num_rows) on the
  /// calling thread, through the blocked kernel BlockForest::PredictStrided
  /// dispatches to.  Row-major rows pass (num_features, 1), column-major
  /// ones (1, num_rows).  Touches no instrument; HawkesPredictor walks
  /// every forest through it.  Bit-identical to per-row Predict.
  void PredictStrided(const float* data, size_t num_rows, size_t row_stride,
                      size_t feat_stride, double* out) const;

  /// PredictStrided over every row of a column-major batch, 256 rows per
  /// ParallelFor chunk.  The only call that observes
  /// horizon_gbdt_batch_inference_latency_seconds, and the only
  /// GbdtRegressor call that adds to horizon_gbdt_rows_scored_total
  /// (HawkesPredictor::PredictStrided adds the rows of the forests it
  /// walks).  Only bench_e2e's replays and tests call it.
  std::vector<double> PredictBatch(const ExampleBatch& x) const;

  bool trained() const { return trained_; }
  size_t num_features() const { return num_features_; }
  const GbdtParams& params() const { return params_; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double base_score() const { return base_score_; }
  /// The blocked layout every prediction walks (compiled once trained).
  const BlockForest& block_forest() const { return blocked_; }

  /// Serializes the trained model to a portable ASCII string (`gbdt v1`,
  /// doubles at 17 significant digits, through common/text_codec.h).
  std::string Serialize() const;
  /// Restores a model from Serialize() output.  Returns false, leaving
  /// the model unchanged, on parse failure (text::Reader's rules) or when
  /// a tree is deeper than BlockForest::kMaxBlockedDepth.
  bool Deserialize(std::string_view text);

 private:
  GbdtParams params_;
  bool trained_ = false;
  size_t num_features_ = 0;
  double base_score_ = 0.0;
  std::vector<RegressionTree> trees_;
  BlockForest blocked_;  ///< compiled from trees_ at the end of Fit/Deserialize
};

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_GBDT_H_
