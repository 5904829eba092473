// The paper's prediction model (Sec. 3.2): gradient-boosted point
// predictors of the view-count increment at one or more fixed reference
// horizons delta*_1 < ... < delta*_m, plus a point predictor of the
// effective growth exponent alpha, combined through the exponential-kernel
// Hawkes transfer formula (Eq. 7) to produce predictions for ANY horizon
// delta at ANY prediction time s -- in O(1) time per query with respect to
// the observed cascade size.
#ifndef HORIZON_CORE_HAWKES_PREDICTOR_H_
#define HORIZON_CORE_HAWKES_PREDICTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "gbdt/gbdt.h"

namespace horizon::core {

/// How outputs of multiple reference-horizon predictors are combined
/// (Sec. 3.2.3).
enum class Aggregation {
  kArithmeticMean,
  kGeometricMean,
};
const char* AggregationName(Aggregation aggregation);

/// Model hyper-parameters.
struct HawkesPredictorParams {
  /// Reference horizons delta*_i in seconds, strictly increasing.
  std::vector<double> reference_horizons{1 * kDay};
  Aggregation aggregation = Aggregation::kGeometricMean;
  /// GBDT settings for the count predictors f_i and the alpha predictor g.
  gbdt::GbdtParams gbdt_count;
  gbdt::GbdtParams gbdt_alpha;
  /// Clamp range for predicted alpha (1/s); keeps the transfer formula
  /// well-conditioned.  Defaults span ~3 minutes .. ~1 year characteristic
  /// times.
  double alpha_min = 1.0 / (365 * kDay);
  double alpha_max = 1.0 / (3 * kMinute);
};

/// The CRC-32 and byte size of a model's Serialize() text: what a
/// checkpoint's manifest records of the model it was written with.
struct ModelDigest {
  uint32_t crc = 0;
  uint64_t size = 0;
};

/// Trained arbitrary-horizon popularity predictor.
///
/// Training inputs (assembled by core/trainer.h):
///   x                feature matrix (static + O(1) temporal features)
///   log1p_increments log1p(N(s + delta*_i) - N(s)) per example, per i
///   alpha_targets    estimated effective growth exponents per example
class HawkesPredictor {
 public:
  explicit HawkesPredictor(HawkesPredictorParams params = {});

  /// Fits the m count predictors and the alpha predictor.
  void Fit(const gbdt::DataMatrix& x,
           const std::vector<std::vector<double>>& log1p_increments,
           const std::vector<double>& alpha_targets);

  /// Predicted expected increment N(s+delta) - N(s) for one feature row.
  /// O(num_trees * depth) -- constant in cascade size.
  double PredictIncrement(const float* row, double delta) const;

  /// Predicted total count N(s+delta) given the observed count N(s).
  double PredictCount(const float* row, double n_s, double delta) const;

  /// Predicted effective growth exponent alpha_hat (clamped).
  double PredictAlpha(const float* row) const;

  // --- Batch inference -------------------------------------------------

  /// The one batch routine.  Rows are laid out at
  /// data[r*row_stride + f*feat_stride]: row-major rows pass
  /// (num_features, 1), a column-major block such as the one the feature
  /// extractor fills in place passes (1, num_rows).  Row r's predicted
  /// increment over deltas[r] goes to increments[r] and its alpha_hat to
  /// alphas[r].  `alphas` may be null; so may `increments`, in which case
  /// only the alpha forest is walked and `deltas` is not read.  The rows
  /// are cut into 256-row chunks under one ParallelFor; each chunk walks
  /// the alpha forest and the m count forests through the instrument-free
  /// GbdtRegressor::PredictStrided and applies the transfer formula on
  /// the thread that claimed it.  Up to 256 rows run on the calling thread
  /// with stack scratch and allocate nothing.  Every row each forest
  /// scores is counted in horizon_gbdt_rows_scored_total.  Results are
  /// bit-identical to the per-row calls above.
  void PredictStrided(const float* data, size_t num_rows, size_t row_stride,
                      size_t feat_stride, const double* deltas,
                      double* increments, double* alphas) const;

  // PredictStrided over a column-major batch.  Only bench_e2e's replays
  // and tests call these two.

  /// Predicted increments over one shared horizon, one per row.
  std::vector<double> PredictIncrementBatch(const gbdt::ExampleBatch& x,
                                            double delta) const;

  /// Predicted total counts: n_s[i] + the increment of row i over
  /// deltas[i].  `alphas_out`, when non-null, receives each row's
  /// alpha_hat.
  std::vector<double> PredictCountBatch(
      const gbdt::ExampleBatch& x, const std::vector<double>& n_s,
      const std::vector<double>& deltas,
      std::vector<double>* alphas_out = nullptr) const;

  /// Predicted increment over an infinite horizon: lim_{delta->inf}.
  double PredictFinalIncrement(const float* row) const;

  /// Serializes the whole trained model (all count predictors, the alpha
  /// predictor, and the transfer-formula parameters) to a portable ASCII
  /// string (`hwk v1`, each forest's `gbdt v1` blob after its byte count);
  /// restorable with Deserialize.
  std::string Serialize() const;
  /// Restores a model serialized by Serialize, parsing each forest's blob
  /// in place.  Returns false on parse failure (text::Reader's rules) or
  /// when the forests disagree on num_features, leaving the model
  /// unchanged.
  bool Deserialize(std::string_view text);

  /// The digest of Serialize()'s text, computed once, by whichever of Fit
  /// and Deserialize made the model, so reading it serializes nothing.
  /// Requires trained().
  const ModelDigest& digest() const;

  bool trained() const { return trained_; }
  size_t num_reference_horizons() const { return params_.reference_horizons.size(); }
  const HawkesPredictorParams& params() const { return params_; }
  const gbdt::GbdtRegressor& count_model(size_t i) const { return f_models_[i]; }
  const gbdt::GbdtRegressor& alpha_model() const { return g_model_; }
  /// The width of the feature row every forest reads.
  size_t num_features() const { return g_model_.num_features(); }

  /// Combines the m reference predictions into the increment for `delta`
  /// using the transfer formula and the configured aggregation.
  double CombineIncrement(const double* increments_at_refs, size_t m,
                          double alpha_hat, double delta) const;

 private:
  /// Rows per PredictStrided chunk: the ParallelFor grain and the length
  /// of PredictChunk's stack arrays.
  static constexpr size_t kChunkRows = 256;

  /// PredictStrided over at most kChunkRows rows, on the calling thread.
  void PredictChunk(const float* data, size_t num_rows, size_t row_stride,
                    size_t feat_stride, const double* deltas,
                    double* increments, double* alphas) const;

  // CombineIncrement in two steps: the summand of reference horizon i
  // (of m), and the increment for `delta` from the summed terms.
  bool LinearMean(size_t m) const;
  double ReferenceTerm(double increment, double alpha_hat, size_t i,
                       size_t m) const;
  double TransferTerms(double term_sum, double alpha_hat, double delta,
                       size_t m) const;

  /// Marks the model trained and computes its digest.
  void FinishTraining();

  HawkesPredictorParams params_;
  bool trained_ = false;
  ModelDigest digest_;
  std::vector<gbdt::GbdtRegressor> f_models_;
  gbdt::GbdtRegressor g_model_;
};

}  // namespace horizon::core

#endif  // HORIZON_CORE_HAWKES_PREDICTOR_H_
