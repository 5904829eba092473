#include "gbdt/simd_dispatch.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "env_guard.h"
#include "gbdt/gbdt.h"

namespace horizon::gbdt {
namespace {

using horizon::test::ScopedEnvVar;

/// Restores the auto-detected kernel after each test: the dispatch cache
/// is process-global, so a forced choice must not leak into other tests.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ScopedEnvVar cleared("HORIZON_SIMD");
    RefreshKernelFromEnv();
  }
};

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

TEST_F(SimdDispatchTest, NamesRoundTrip) {
  EXPECT_STREQ(SimdKernelName(SimdKernel::kScalar), "scalar");
  EXPECT_STREQ(SimdKernelName(SimdKernel::kAvx2), "avx2");
}

TEST_F(SimdDispatchTest, SupportedKernelsStartAtScalar) {
  const std::vector<SimdKernel> kernels = SupportedKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), SimdKernel::kScalar);
  // Narrowest-first, contiguous up to the best.
  for (size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_EQ(static_cast<int>(kernels[i]), static_cast<int>(i));
  }
  EXPECT_EQ(kernels.back(), DetectBestKernel());
}

TEST_F(SimdDispatchTest, EnvOverrideForcesEachSupportedKernel) {
  for (const SimdKernel k : SupportedKernels()) {
    ScopedEnvVar forced("HORIZON_SIMD", SimdKernelName(k));
    EXPECT_EQ(RefreshKernelFromEnv(), k) << SimdKernelName(k);
    EXPECT_EQ(ActiveKernel(), k) << SimdKernelName(k);
  }
}

TEST_F(SimdDispatchTest, UnknownValueFallsBackToAutoDetection) {
  // There is no SSE flavor, so "sse" must fall back like any unknown name.
  for (const char* value : {"avx512-ultra", "sse"}) {
    ScopedEnvVar forced("HORIZON_SIMD", value);
    EXPECT_EQ(RefreshKernelFromEnv(), DetectBestKernel()) << value;
  }
}

TEST_F(SimdDispatchTest, UnsetFallsBackToAutoDetection) {
  ScopedEnvVar cleared("HORIZON_SIMD");
  EXPECT_EQ(RefreshKernelFromEnv(), DetectBestKernel());
}

TEST_F(SimdDispatchTest, RequestsAboveBestClampDown) {
  // Requesting the widest flavor never yields something the CPU can't
  // run; on an AVX2 machine this degenerates to "avx2 selects avx2".
  ScopedEnvVar forced("HORIZON_SIMD", "avx2");
  EXPECT_LE(static_cast<int>(RefreshKernelFromEnv()),
            static_cast<int>(DetectBestKernel()));
}

// The dispatch shim's core guarantee: every selectable kernel produces
// IDENTICAL float-path outputs.  Forces each flavor in turn via the env
// override and compares bitwise against the scalar baseline.
TEST_F(SimdDispatchTest, AllKernelFlavorsProduceIdenticalFloatOutputs) {
  const GbdtRegressor model = TrainSmallModel(23);
  // 2001 rows: exercises the 32-row AVX2 groups and the scalar tail.
  const DataMatrix x = RandomMatrix(2001, model.num_features(), 77);
  ExampleBatch soa(x.num_rows(), x.num_features());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    for (size_t f = 0; f < x.num_features(); ++f) soa.Set(r, f, x.Get(r, f));
  }

  // Row-major through PredictStrided, column-major through PredictBatch.
  const auto predict_rows = [&] {
    std::vector<double> out(x.num_rows());
    model.PredictStrided(x.Row(0), x.num_rows(), x.num_features(), 1, out.data());
    return out;
  };
  std::vector<double> baseline_rows, baseline_soa;
  {
    ScopedEnvVar forced("HORIZON_SIMD", "scalar");
    RefreshKernelFromEnv();
    baseline_rows = predict_rows();
    baseline_soa = model.PredictBatch(soa);
  }
  for (const SimdKernel k : SupportedKernels()) {
    ScopedEnvVar forced("HORIZON_SIMD", SimdKernelName(k));
    ASSERT_EQ(RefreshKernelFromEnv(), k);
    const std::vector<double> rows = predict_rows();
    const std::vector<double> cols = model.PredictBatch(soa);
    ASSERT_EQ(rows.size(), baseline_rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i], baseline_rows[i])
          << SimdKernelName(k) << " row-major row " << i;
      ASSERT_EQ(cols[i], baseline_soa[i])
          << SimdKernelName(k) << " col-major row " << i;
    }
  }
}

}  // namespace
}  // namespace horizon::gbdt
