#include "gbdt/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace horizon::gbdt {

DataMatrix::DataMatrix(size_t num_rows, size_t num_features)
    : num_rows_(num_rows),
      num_features_(num_features),
      values_(num_rows * num_features, 0.0f) {}

void DataMatrix::Set(size_t row, size_t col, float v) {
  HORIZON_DCHECK(row < num_rows_ && col < num_features_);
  values_[row * num_features_ + col] = v;
}

float DataMatrix::Get(size_t row, size_t col) const {
  HORIZON_DCHECK(row < num_rows_ && col < num_features_);
  return values_[row * num_features_ + col];
}

const float* DataMatrix::Row(size_t row) const {
  HORIZON_DCHECK(row < num_rows_);
  return values_.data() + row * num_features_;
}

float* DataMatrix::MutableRow(size_t row) {
  HORIZON_DCHECK(row < num_rows_);
  return values_.data() + row * num_features_;
}

void DataMatrix::AppendRow(const std::vector<float>& row) {
  if (num_rows_ == 0 && num_features_ == 0) num_features_ = row.size();
  HORIZON_CHECK_EQ(row.size(), num_features_);
  values_.insert(values_.end(), row.begin(), row.end());
  ++num_rows_;
}

ExampleBatch::ExampleBatch(size_t num_rows, size_t num_features)
    : num_rows_(num_rows),
      num_features_(num_features),
      values_(num_rows * num_features, 0.0f) {}

void ExampleBatch::Set(size_t row, size_t col, float v) {
  HORIZON_DCHECK(row < num_rows_ && col < num_features_);
  values_[col * num_rows_ + row] = v;
}

float ExampleBatch::Get(size_t row, size_t col) const {
  HORIZON_DCHECK(row < num_rows_ && col < num_features_);
  return values_[col * num_rows_ + row];
}

float* ExampleBatch::MutableRowBase(size_t row) {
  HORIZON_DCHECK(row < num_rows_);
  return values_.data() + row;
}

BinnedDataset BinnedDataset::Create(const DataMatrix& data, int max_bins) {
  HORIZON_CHECK(max_bins >= 2 && max_bins <= 256);
  BinnedDataset out;
  out.num_rows_ = data.num_rows();
  out.num_features_ = data.num_features();
  out.max_bins_ = max_bins;
  out.codes_.resize(out.num_rows_ * out.num_features_);
  out.upper_edges_.resize(out.num_features_);

  std::vector<float> column(out.num_rows_);
  for (size_t f = 0; f < out.num_features_; ++f) {
    for (size_t r = 0; r < out.num_rows_; ++r) {
      const float v = data.Get(r, f);
      HORIZON_CHECK(std::isfinite(v));
      column[r] = v;
    }
    // Candidate edges from sorted distinct values at (approximately)
    // equally spaced quantiles.
    std::vector<float> sorted = column;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    auto& edges = out.upper_edges_[f];
    if (sorted.size() <= static_cast<size_t>(max_bins)) {
      edges = sorted;
    } else {
      edges.reserve(static_cast<size_t>(max_bins));
      for (int b = 0; b < max_bins; ++b) {
        const size_t idx = (b + 1) * sorted.size() / static_cast<size_t>(max_bins) - 1;
        edges.push_back(sorted[idx]);
      }
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    }
    // The last edge must cover the maximum value.
    HORIZON_DCHECK(!edges.empty());
    // Encode: bin = first edge >= value.
    for (size_t r = 0; r < out.num_rows_; ++r) {
      const auto it = std::lower_bound(edges.begin(), edges.end(), column[r]);
      HORIZON_DCHECK(it != edges.end());
      out.codes_[r * out.num_features_ + f] =
          static_cast<uint8_t>(it - edges.begin());
    }
  }
  return out;
}

int BinnedDataset::NumBins(size_t feature) const {
  HORIZON_DCHECK(feature < num_features_);
  return static_cast<int>(upper_edges_[feature].size());
}

float BinnedDataset::BinUpperEdge(size_t feature, int bin) const {
  HORIZON_DCHECK(feature < num_features_);
  HORIZON_DCHECK(bin >= 0 && bin < NumBins(feature));
  return upper_edges_[feature][static_cast<size_t>(bin)];
}

}  // namespace horizon::gbdt
