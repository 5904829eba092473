#include "core/hawkes_predictor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/file_io.h"
#include "common/math_util.h"
#include "common/text_codec.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace horizon::core {

const char* AggregationName(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kArithmeticMean: return "arithmetic";
    case Aggregation::kGeometricMean: return "geometric";
  }
  return "unknown";
}

HawkesPredictor::HawkesPredictor(HawkesPredictorParams params)
    : params_(std::move(params)), g_model_(params_.gbdt_alpha) {
  HORIZON_CHECK(!params_.reference_horizons.empty());
  for (size_t i = 0; i < params_.reference_horizons.size(); ++i) {
    HORIZON_CHECK_GT(params_.reference_horizons[i], 0.0);
    if (i > 0) {
      HORIZON_CHECK_GT(params_.reference_horizons[i], params_.reference_horizons[i - 1]);
    }
    f_models_.emplace_back(params_.gbdt_count);
  }
  HORIZON_CHECK_GT(params_.alpha_min, 0.0);
  HORIZON_CHECK_GT(params_.alpha_max, params_.alpha_min);
}

void HawkesPredictor::Fit(const gbdt::DataMatrix& x,
                          const std::vector<std::vector<double>>& log1p_increments,
                          const std::vector<double>& alpha_targets) {
  HORIZON_CHECK_EQ(log1p_increments.size(), f_models_.size());
  HORIZON_CHECK_EQ(alpha_targets.size(), x.num_rows());
  // Every forest trains on x: bin it once.
  const gbdt::BinnedDataset binned =
      gbdt::BinnedDataset::Create(x, params_.gbdt_count.max_bins);
  for (size_t i = 0; i < f_models_.size(); ++i) {
    HORIZON_CHECK_EQ(log1p_increments[i].size(), x.num_rows());
    f_models_[i].Fit(x, binned, log1p_increments[i]);
  }
  // g is trained on log(alpha): alpha is positive and roughly lognormal
  // across items.  Zero-alpha targets (degenerate cascades) are clamped to
  // alpha_min before the log.
  std::vector<double> log_alpha(alpha_targets.size());
  for (size_t i = 0; i < alpha_targets.size(); ++i) {
    log_alpha[i] =
        std::log(Clamp(alpha_targets[i], params_.alpha_min, params_.alpha_max));
  }
  if (params_.gbdt_alpha.max_bins == binned.max_bins()) {
    g_model_.Fit(x, binned, log_alpha);
  } else {
    g_model_.Fit(x, log_alpha);
  }
  FinishTraining();
}

void HawkesPredictor::FinishTraining() {
  trained_ = true;
  const std::string text = Serialize();
  digest_ = {io::Crc32(text), text.size()};
}

const ModelDigest& HawkesPredictor::digest() const {
  HORIZON_CHECK(trained_);
  return digest_;
}

double HawkesPredictor::PredictAlpha(const float* row) const {
  HORIZON_DCHECK(trained_);
  return Clamp(std::exp(g_model_.Predict(row)), params_.alpha_min, params_.alpha_max);
}

// Eq. (7) with one reference horizon; with several, the arithmetic or
// geometric aggregation of Sec. 3.2.3.  Both work on the lambda(s)/alpha
// "final increment" scale, base_i = inc_i / (1 - e^{-alpha delta*_i}),
// then scale by (1 - e^{-alpha delta}); the geometric mean (Eq. 10) in log
// space for numerical stability.  ReferenceTerm is reference horizon i's
// summand and TransferTerms turns the sum into the increment, so a batch
// can add the terms one forest at a time in the order CombineIncrement
// adds them.
bool HawkesPredictor::LinearMean(size_t m) const {
  return params_.aggregation == Aggregation::kArithmeticMean || m == 1;
}

double HawkesPredictor::ReferenceTerm(double increment, double alpha_hat,
                                      size_t i, size_t m) const {
  if (LinearMean(m)) {
    return increment / -std::expm1(-alpha_hat * params_.reference_horizons[i]);
  }
  return std::log(std::max(increment, 1e-9)) -
         Log1mExp(alpha_hat * params_.reference_horizons[i]);
}

double HawkesPredictor::TransferTerms(double term_sum, double alpha_hat,
                                      double delta, size_t m) const {
  if (LinearMean(m)) {
    const double target_factor =
        std::isinf(delta) ? 1.0 : -std::expm1(-alpha_hat * delta);
    return term_sum / static_cast<double>(m) * target_factor;
  }
  const double log_target = std::isinf(delta) ? 0.0 : Log1mExp(alpha_hat * delta);
  return std::exp(term_sum / static_cast<double>(m) + log_target);
}

double HawkesPredictor::CombineIncrement(const double* increments_at_refs, size_t m,
                                         double alpha_hat, double delta) const {
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    sum += ReferenceTerm(increments_at_refs[i], alpha_hat, i, m);
  }
  return TransferTerms(sum, alpha_hat, delta, m);
}

double HawkesPredictor::PredictIncrement(const float* row, double delta) const {
  HORIZON_DCHECK(trained_);
  HORIZON_CHECK_GE(delta, 0.0);
  if (delta == 0.0) return 0.0;
  const double alpha_hat = PredictAlpha(row);
  std::vector<double> increments(f_models_.size());
  for (size_t i = 0; i < f_models_.size(); ++i) {
    // Invert the log1p transform; predictions below zero increment clamp
    // to zero.
    increments[i] = std::max(std::expm1(f_models_[i].Predict(row)), 0.0);
  }
  return CombineIncrement(increments.data(), increments.size(), alpha_hat, delta);
}

double HawkesPredictor::PredictCount(const float* row, double n_s, double delta) const {
  return n_s + PredictIncrement(row, delta);
}

double HawkesPredictor::PredictFinalIncrement(const float* row) const {
  return PredictIncrement(row, std::numeric_limits<double>::infinity());
}

void HawkesPredictor::PredictStrided(const float* data, size_t num_rows,
                                     size_t row_stride, size_t feat_stride,
                                     const double* deltas, double* increments,
                                     double* alphas) const {
  HORIZON_DCHECK(trained_);
  const auto from = [](auto* p, size_t begin) { return p == nullptr ? p : p + begin; };
  ParallelFor(num_rows, kChunkRows, [&](size_t begin, size_t end) {
    PredictChunk(data + begin * row_stride, end - begin, row_stride, feat_stride,
                 from(deltas, begin), from(increments, begin), from(alphas, begin));
  });
}

void HawkesPredictor::PredictChunk(const float* data, size_t num_rows,
                                   size_t row_stride, size_t feat_stride,
                                   const double* deltas, double* increments,
                                   double* alphas) const {
  // Every forest this routine walks scores every row of the chunk.
  static obs::Counter* const rows_scored =
      obs::MetricsRegistry::Global().GetCounter("horizon_gbdt_rows_scored_total");
  HORIZON_DCHECK(num_rows <= kChunkRows);
  double alpha[kChunkRows];
  g_model_.PredictStrided(data, num_rows, row_stride, feat_stride, alpha);
  for (size_t r = 0; r < num_rows; ++r) {
    alpha[r] = Clamp(std::exp(alpha[r]), params_.alpha_min, params_.alpha_max);
  }
  if (alphas != nullptr) std::copy(alpha, alpha + num_rows, alphas);
  if (increments == nullptr) {
    rows_scored->Add(num_rows);
    return;
  }
  const size_t m = f_models_.size();
  rows_scored->Add(num_rows * (m + 1));
  double raw[kChunkRows];
  double terms[kChunkRows];
  std::fill(terms, terms + num_rows, 0.0);
  for (size_t i = 0; i < m; ++i) {
    f_models_[i].PredictStrided(data, num_rows, row_stride, feat_stride, raw);
    for (size_t r = 0; r < num_rows; ++r) {
      // Invert the log1p transform, clamping below zero, as PredictIncrement.
      terms[r] += ReferenceTerm(std::max(std::expm1(raw[r]), 0.0), alpha[r], i, m);
    }
  }
  for (size_t r = 0; r < num_rows; ++r) {
    HORIZON_CHECK_GE(deltas[r], 0.0);
    increments[r] =
        deltas[r] == 0.0 ? 0.0 : TransferTerms(terms[r], alpha[r], deltas[r], m);
  }
}

std::vector<double> HawkesPredictor::PredictIncrementBatch(
    const gbdt::ExampleBatch& x, double delta) const {
  HORIZON_CHECK_EQ(x.num_features(), g_model_.num_features());
  const std::vector<double> deltas(x.num_rows(), delta);
  std::vector<double> out(x.num_rows());
  PredictStrided(x.data(), x.num_rows(), 1, x.feature_stride(), deltas.data(),
                 out.data(), nullptr);
  return out;
}

std::vector<double> HawkesPredictor::PredictCountBatch(
    const gbdt::ExampleBatch& x, const std::vector<double>& n_s,
    const std::vector<double>& deltas,
    std::vector<double>* alphas_out) const {
  HORIZON_CHECK_EQ(x.num_features(), g_model_.num_features());
  HORIZON_CHECK_EQ(n_s.size(), x.num_rows());
  HORIZON_CHECK_EQ(deltas.size(), x.num_rows());
  std::vector<double> out(x.num_rows());
  if (alphas_out != nullptr) alphas_out->resize(x.num_rows());
  PredictStrided(x.data(), x.num_rows(), 1, x.feature_stride(), deltas.data(),
                 out.data(), alphas_out == nullptr ? nullptr : alphas_out->data());
  for (size_t i = 0; i < out.size(); ++i) out[i] += n_s[i];
  return out;
}

std::string HawkesPredictor::Serialize() const {
  HORIZON_CHECK(trained_);
  std::string out = "hwk v1\n";
  text::AppendInt(&out, params_.reference_horizons.size());
  out.append(params_.aggregation == Aggregation::kGeometricMean ? " geo " : " arith ");
  text::AppendDouble(&out, params_.alpha_min);
  out.push_back(' ');
  text::AppendDouble(&out, params_.alpha_max);
  out.push_back('\n');
  for (const double ref : params_.reference_horizons) {
    text::AppendDouble(&out, ref);
    out.push_back(' ');
  }
  out.push_back('\n');
  const auto append_model = [&out](const gbdt::GbdtRegressor& model) {
    const std::string blob = model.Serialize();
    text::AppendInt(&out, blob.size());
    out.push_back('\n');
    out.append(blob);
  };
  for (const auto& f : f_models_) append_model(f);
  append_model(g_model_);
  return out;
}

bool HawkesPredictor::Deserialize(std::string_view text) {
  // Must be safe on untrusted bytes: counts and sizes are bounded before
  // any allocation, reference horizons must be strictly increasing, and
  // the alpha clamp range must be a valid positive interval, mirroring the
  // constructor's contract.
  constexpr size_t kMaxReferenceHorizons = 64;
  text::Reader in(text);
  std::string_view magic, version, agg;
  size_t m = 0;
  double alpha_min = 0.0, alpha_max = 0.0;
  if (!in.ReadWord(&magic) || !in.ReadWord(&version) || magic != "hwk" ||
      version != "v1") {
    return false;
  }
  if (!in.Read(&m) || !in.ReadWord(&agg) || !in.Read(&alpha_min, &alpha_max) ||
      m == 0) {
    return false;
  }
  if (m > kMaxReferenceHorizons) return false;
  if (agg != "geo" && agg != "arith") return false;
  if (!std::isfinite(alpha_min) || !std::isfinite(alpha_max) || alpha_min <= 0.0 ||
      alpha_max <= alpha_min) {
    return false;
  }
  std::vector<double> refs(m);
  for (size_t i = 0; i < m; ++i) {
    if (!in.Read(&refs[i]) || refs[i] <= 0.0 || !std::isfinite(refs[i])) return false;
    if (i > 0 && refs[i] <= refs[i - 1]) return false;
  }
  const auto read_model = [&in](gbdt::GbdtRegressor* model) {
    // Model blobs beyond this size cannot come from a legitimately
    // serialized ensemble (the node caps bound the text length).
    constexpr size_t kMaxBlobBytes = 1u << 28;
    size_t size = 0;
    std::string_view blob;
    // The byte after the size is its newline; the blob follows it.
    if (!in.Read(&size) || size == 0 || size > kMaxBlobBytes ||
        !in.Take(size + 1, &blob)) {
      return false;
    }
    return model->Deserialize(blob.substr(1));
  };
  std::vector<gbdt::GbdtRegressor> f_models(m);
  for (auto& f : f_models) {
    if (!read_model(&f)) return false;
  }
  gbdt::GbdtRegressor g_model;
  if (!read_model(&g_model)) return false;
  // Every forest reads the same feature row.
  for (const auto& f : f_models) {
    if (f.num_features() != g_model.num_features()) return false;
  }

  params_.reference_horizons = std::move(refs);
  params_.aggregation =
      agg == "geo" ? Aggregation::kGeometricMean : Aggregation::kArithmeticMean;
  params_.alpha_min = alpha_min;
  params_.alpha_max = alpha_max;
  f_models_ = std::move(f_models);
  g_model_ = std::move(g_model);
  FinishTraining();
  return true;
}

}  // namespace horizon::core
