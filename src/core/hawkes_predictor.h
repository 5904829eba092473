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
#include <string>
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
  // Each batch call feeds all rows through the compiled vectorized
  // forests (runtime-dispatched scalar/SSE/AVX2 blocked kernels) in one
  // pass per model, then applies the transfer formula per row.  Results
  // are bit-identical to the per-row calls above.  Every method takes
  // either a row-major DataMatrix or a column-major ExampleBatch -- the
  // SoA layout the feature extractor fills in place, which reaches the
  // SIMD kernels without transposition.

  /// Predicted alpha_hat for every row of `x`.
  std::vector<double> PredictAlphaBatch(const gbdt::DataMatrix& x) const;
  std::vector<double> PredictAlphaBatch(const gbdt::ExampleBatch& x) const;

  /// Predicted increments, one per row; deltas.size() must equal
  /// x.num_rows().  When `alphas_out` is non-null it receives the per-row
  /// alpha_hat values the transfer formula used -- the alpha forest is
  /// walked once either way, so callers that need both should pass it
  /// rather than calling PredictAlphaBatch separately.
  std::vector<double> PredictIncrementBatch(
      const gbdt::DataMatrix& x, const std::vector<double>& deltas,
      std::vector<double>* alphas_out = nullptr) const;
  std::vector<double> PredictIncrementBatch(
      const gbdt::ExampleBatch& x, const std::vector<double>& deltas,
      std::vector<double>* alphas_out = nullptr) const;

  /// Predicted increments over a single shared horizon.
  std::vector<double> PredictIncrementBatch(const gbdt::DataMatrix& x,
                                            double delta) const;
  std::vector<double> PredictIncrementBatch(const gbdt::ExampleBatch& x,
                                            double delta) const;

  /// Predicted total counts: n_s[i] + increment for row i over deltas[i].
  /// `alphas_out` as in PredictIncrementBatch.
  std::vector<double> PredictCountBatch(
      const gbdt::DataMatrix& x, const std::vector<double>& n_s,
      const std::vector<double>& deltas,
      std::vector<double>* alphas_out = nullptr) const;
  std::vector<double> PredictCountBatch(
      const gbdt::ExampleBatch& x, const std::vector<double>& n_s,
      const std::vector<double>& deltas,
      std::vector<double>* alphas_out = nullptr) const;

  /// Predicted increment over an infinite horizon: lim_{delta->inf}.
  double PredictFinalIncrement(const float* row) const;

  /// Serializes the whole trained model (all count predictors, the alpha
  /// predictor, and the transfer-formula parameters) to a portable ASCII
  /// string; restorable with Deserialize.
  std::string Serialize() const;
  /// Restores a model serialized by Serialize.  Returns false on parse
  /// failure (model state is then unspecified but safe to destroy or
  /// re-Deserialize).
  bool Deserialize(const std::string& text);

  /// Serializes the quantized companions of every forest (count models
  /// then the alpha model, "qhwk v1" framing).  Deterministic for a given
  /// trained model -- Deserialize recompiles identical quantized forests,
  /// so checkpoint restore verifies this blob by byte equality.  A model
  /// whose blocked form did not compile contributes an empty section.
  std::string SerializeQuantized() const;

  bool trained() const { return trained_; }
  size_t num_reference_horizons() const { return params_.reference_horizons.size(); }
  const HawkesPredictorParams& params() const { return params_; }
  const gbdt::GbdtRegressor& count_model(size_t i) const { return f_models_[i]; }
  const gbdt::GbdtRegressor& alpha_model() const { return g_model_; }

  /// Combines the m reference predictions into the increment for `delta`
  /// using the transfer formula and the configured aggregation.
  double CombineIncrement(const double* increments_at_refs, size_t m,
                          double alpha_hat, double delta) const;

 private:
  // Layout-generic batch implementations (DataMatrix / ExampleBatch).
  template <typename Matrix>
  std::vector<double> PredictAlphaBatchImpl(const Matrix& x) const;
  template <typename Matrix>
  std::vector<double> PredictIncrementBatchImpl(
      const Matrix& x, const std::vector<double>& deltas,
      std::vector<double>* alphas_out) const;

  HawkesPredictorParams params_;
  bool trained_ = false;
  std::vector<gbdt::GbdtRegressor> f_models_;
  gbdt::GbdtRegressor g_model_;
};

}  // namespace horizon::core

#endif  // HORIZON_CORE_HAWKES_PREDICTOR_H_
