#include "gbdt/simd_dispatch.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/block_forest.h"
#include "gbdt/forest_kernels.h"
#include "gbdt/gbdt.h"

namespace horizon::gbdt {
namespace {

DataMatrix RandomMatrix(size_t rows, size_t features, uint64_t seed) {
  Rng rng(seed);
  DataMatrix x(rows, features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t f = 0; f < features; ++f) {
      x.Set(i, f, static_cast<float>(rng.Uniform(-2.0, 2.0)));
    }
  }
  return x;
}

GbdtRegressor TrainSmallModel(uint64_t seed) {
  const size_t rows = 1500, features = 12;
  Rng rng(seed);
  DataMatrix x(rows, features);
  std::vector<double> y(rows);
  for (size_t i = 0; i < rows; ++i) {
    double target = 0.0;
    for (size_t f = 0; f < features; ++f) {
      const double v = rng.Uniform(-1.0, 1.0);
      x.Set(i, f, static_cast<float>(v));
      if (f < 4) target += (f % 2 == 0 ? v : v * v);
    }
    y[i] = target + rng.Normal(0.0, 0.05);
  }
  GbdtParams params;
  params.num_trees = 40;
  params.seed = seed;
  GbdtRegressor model(params);
  model.Fit(x, y);
  return model;
}

/// Success iff `got` and `want` hold the same doubles bit for bit.
::testing::AssertionResult BitIdentical(const std::vector<double>& got,
                                        const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " outputs, want " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<uint64_t>(got[i]) != std::bit_cast<uint64_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "row " << i << ": " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SimdDispatchTest, NamesRoundTrip) {
  EXPECT_STREQ(SimdKernelName(SimdKernel::kScalar), "scalar");
  EXPECT_STREQ(SimdKernelName(SimdKernel::kAvx2), "avx2");
}

// The dispatch's core guarantee: both kernels produce IDENTICAL float
// outputs, so the CPU the process runs on changes speed only.  Calls each
// kernel directly on the model's forest, row-major and column-major, and
// the dispatched PredictStrided and PredictBatch, and compares all of
// them bitwise with the scalar walk.
TEST(SimdDispatchTest, AllKernelFlavorsProduceIdenticalFloatOutputs) {
  const GbdtRegressor model = TrainSmallModel(23);
  // 2001 rows: exercises the 32-row AVX2 groups and the scalar tail.
  const DataMatrix x = RandomMatrix(2001, model.num_features(), 77);
  const size_t n = x.num_rows();
  const size_t nf = x.num_features();
  ExampleBatch soa(n, nf);
  for (size_t r = 0; r < n; ++r) {
    for (size_t f = 0; f < nf; ++f) soa.Set(r, f, x.Get(r, f));
  }
  const BlockForest& forest = model.block_forest();
  const kernels::FloatForestSpan span{
      forest.raw_features().data(), forest.raw_thresholds().data(),
      forest.raw_leaves().data(),   forest.num_trees(),
      forest.depth(),               forest.base_score(),
      forest.learning_rate()};
  // Kernel `predict` over every row of `x`, row-major or column-major.
  const auto rows = [&](auto* predict) {
    std::vector<double> out(n);
    predict(span, x.Row(0), n, nf, 1, out.data());
    return out;
  };
  const auto cols = [&](auto* predict) {
    std::vector<double> out(n);
    predict(span, soa.data(), n, 1, soa.feature_stride(), out.data());
    return out;
  };

  const std::vector<double> scalar = rows(kernels::PredictFloatScalar);
  EXPECT_TRUE(BitIdentical(cols(kernels::PredictFloatScalar), scalar))
      << "scalar col-major";
  std::vector<double> dispatched(n);
  model.PredictStrided(x.Row(0), n, nf, 1, dispatched.data());
  EXPECT_TRUE(BitIdentical(dispatched, scalar)) << "PredictStrided row-major";
  EXPECT_TRUE(BitIdentical(model.PredictBatch(soa), scalar))
      << "PredictBatch col-major";

  if (ActiveKernel() == SimdKernel::kScalar) {
    GTEST_SKIP() << "this CPU cannot run the AVX2 kernel";
  }
  EXPECT_TRUE(BitIdentical(rows(kernels::PredictFloatAvx2), scalar))
      << "avx2 row-major";
  EXPECT_TRUE(BitIdentical(cols(kernels::PredictFloatAvx2), scalar))
      << "avx2 col-major";
}

}  // namespace
}  // namespace horizon::gbdt
