// Feature matrices and quantile binning for histogram-based tree learning.
#ifndef HORIZON_GBDT_DATASET_H_
#define HORIZON_GBDT_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace horizon::gbdt {

/// Dense row-major matrix of float features.
///
/// Rows are examples, columns are features.  Values must be finite (the
/// learner has no missing-value handling; callers encode "absent" with a
/// sentinel such as -1, which the trees treat as an ordinary value).
class DataMatrix {
 public:
  DataMatrix() = default;
  DataMatrix(size_t num_rows, size_t num_features);

  void Set(size_t row, size_t col, float v);
  float Get(size_t row, size_t col) const;

  /// Pointer to the contiguous feature vector of a row.
  const float* Row(size_t row) const;
  float* MutableRow(size_t row);

  /// Appends a row (must have num_features() entries).
  void AppendRow(const std::vector<float>& row);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

 private:
  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  std::vector<float> values_;  // row-major
};

/// Column-major (structure-of-arrays) batch of dense feature rows -- the
/// layout the vectorized inference kernels consume directly.
///
/// Feature f of row r lives at data()[f * feature_stride() + r], so one
/// feature's values across the whole batch are contiguous.  Feature
/// extraction writes each example straight into its column slots
/// (FeatureExtractor::ExtractIntoStrided), and the kernels read it through
/// PredictStrided with strides (1, num_rows): no transposition step.
class ExampleBatch {
 public:
  ExampleBatch() = default;
  ExampleBatch(size_t num_rows, size_t num_features);

  void Set(size_t row, size_t col, float v);
  float Get(size_t row, size_t col) const;

  /// Base pointer for writing one example: feature f of this row goes to
  /// base[f * feature_stride()].  Pairs with ExtractIntoStrided.
  float* MutableRowBase(size_t row);

  const float* data() const { return values_.data(); }
  size_t feature_stride() const { return num_rows_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

 private:
  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  std::vector<float> values_;  // column-major
};

/// Per-feature quantile binning of a DataMatrix.
///
/// Each feature is discretized into at most `max_bins` bins delimited by
/// upper-edge thresholds; bin b holds values v with
/// upper_edge[b-1] < v <= upper_edge[b].  Codes are uint8_t, so max_bins
/// must be <= 256.  They are stored row-major, like the DataMatrix: the
/// tree learner's level pass reads one row's codes for a block of features
/// from one line, and its consecutive histogram updates then land in
/// different features' histograms.
class BinnedDataset {
 public:
  /// Builds bins from the data and encodes every row.
  static BinnedDataset Create(const DataMatrix& data, int max_bins = 255);

  /// Bin code of (row, feature).
  uint8_t Code(size_t row, size_t feature) const {
    return codes_[row * num_features_ + feature];
  }

  /// The num_features() contiguous codes of one row.
  const uint8_t* RowCodes(size_t row) const {
    return codes_.data() + row * num_features_;
  }

  /// Number of bins actually used for a feature (>= 1).
  int NumBins(size_t feature) const;

  /// Real-valued threshold such that "x <= threshold" sends x to bins
  /// [0, bin] -- the split threshold recorded into trees.
  float BinUpperEdge(size_t feature, int bin) const;

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }
  /// The `max_bins` the dataset was built with.
  int max_bins() const { return max_bins_; }

 private:
  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  int max_bins_ = 0;
  std::vector<uint8_t> codes_;  // row-major
  std::vector<std::vector<float>> upper_edges_;  // per feature, ascending
};

}  // namespace horizon::gbdt

#endif  // HORIZON_GBDT_DATASET_H_
