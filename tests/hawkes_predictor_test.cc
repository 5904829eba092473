#include "core/hawkes_predictor.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace horizon::core {
namespace {

// Builds a synthetic supervised problem where feature 0 encodes the log1p
// increment at each reference horizon through the ground-truth Hawkes
// transfer formula and feature 1 encodes log(alpha).  The GBDTs can learn
// this mapping almost perfectly, which lets us test the transfer logic.
struct ToyProblem {
  gbdt::DataMatrix x;
  std::vector<std::vector<double>> log1p_increments;
  std::vector<double> alpha_targets;
  std::vector<double> true_final;  // lambda/alpha per example
};

ToyProblem MakeToyProblem(const std::vector<double>& reference_horizons,
                          size_t n = 3000, uint64_t seed = 5) {
  ToyProblem problem;
  problem.x = gbdt::DataMatrix(n, 3);
  problem.log1p_increments.resize(reference_horizons.size());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double alpha = std::exp(rng.Uniform(std::log(0.3 / kDay), std::log(8.0 / kDay)));
    const double final_inc = std::exp(rng.Uniform(std::log(20.0), std::log(5000.0)));
    problem.x.Set(i, 0, static_cast<float>(std::log(final_inc)));
    problem.x.Set(i, 1, static_cast<float>(std::log(alpha * kDay)));
    problem.x.Set(i, 2, static_cast<float>(rng.Uniform()));  // noise
    for (size_t h = 0; h < reference_horizons.size(); ++h) {
      const double inc = final_inc * -std::expm1(-alpha * reference_horizons[h]);
      problem.log1p_increments[h].push_back(std::log1p(inc));
    }
    problem.alpha_targets.push_back(alpha);
    problem.true_final.push_back(final_inc);
  }
  return problem;
}

HawkesPredictorParams ToyParams(std::vector<double> refs,
                                Aggregation agg = Aggregation::kGeometricMean) {
  HawkesPredictorParams params;
  params.reference_horizons = std::move(refs);
  params.aggregation = agg;
  params.gbdt_count.num_trees = 60;
  params.gbdt_count.tree.max_depth = 5;
  params.gbdt_alpha = params.gbdt_count;
  return params;
}

TEST(HawkesPredictorTest, ExactConsistencyAtReferenceHorizon) {
  // With one reference horizon, the prediction at delta = delta* must equal
  // the raw point predictor output exactly (Sec. 3.2.2).
  const double ref = 1 * kDay;
  const auto problem = MakeToyProblem({ref}, 1500);
  HawkesPredictor model(ToyParams({ref}));
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);

  for (size_t i = 0; i < 20; ++i) {
    const float* row = problem.x.Row(i);
    const double direct = std::max(std::expm1(model.count_model(0).Predict(row)), 0.0);
    EXPECT_DOUBLE_EQ(model.PredictIncrement(row, ref), direct);
  }
}

TEST(HawkesPredictorTest, IncrementMonotoneInHorizon) {
  const auto problem = MakeToyProblem({6 * kHour, 2 * kDay});
  HawkesPredictor model(ToyParams({6 * kHour, 2 * kDay}));
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  const float* row = problem.x.Row(0);
  double prev = 0.0;
  for (double delta : {1 * kHour, 3 * kHour, 12 * kHour, 1 * kDay, 4 * kDay, 7 * kDay}) {
    const double inc = model.PredictIncrement(row, delta);
    EXPECT_GE(inc, prev);
    prev = inc;
  }
  EXPECT_GE(model.PredictFinalIncrement(row), prev);
}

TEST(HawkesPredictorTest, TransfersAccuratelyAcrossHorizons) {
  // Train with reference 1d; query at 3h and 4d; compare against the
  // ground-truth transfer values.
  const double ref = 1 * kDay;
  const auto problem = MakeToyProblem({ref}, 4000);
  HawkesPredictor model(ToyParams({ref}));
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);

  int good = 0, total = 0;
  for (size_t i = 0; i < 300; ++i) {
    const float* row = problem.x.Row(i);
    const double alpha = problem.alpha_targets[i];
    for (double delta : {3 * kHour, 4 * kDay}) {
      const double truth = problem.true_final[i] * -std::expm1(-alpha * delta);
      const double pred = model.PredictIncrement(row, delta);
      if (std::fabs(pred - truth) / truth < 0.35) ++good;
      ++total;
    }
  }
  // The GBDTs fit a smooth 2-d function; most queries must transfer well.
  EXPECT_GT(static_cast<double>(good) / total, 0.8);
}

TEST(HawkesPredictorTest, AggregationsAgreeForSingleReference) {
  const double ref = 12 * kHour;
  const auto problem = MakeToyProblem({ref}, 800);
  HawkesPredictor geo(ToyParams({ref}, Aggregation::kGeometricMean));
  HawkesPredictor ari(ToyParams({ref}, Aggregation::kArithmeticMean));
  geo.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  ari.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  for (size_t i = 0; i < 10; ++i) {
    const float* row = problem.x.Row(i);
    for (double delta : {1 * kHour, 1 * kDay, 5 * kDay}) {
      EXPECT_NEAR(geo.PredictIncrement(row, delta), ari.PredictIncrement(row, delta),
                  1e-6 * (1.0 + ari.PredictIncrement(row, delta)));
    }
  }
}

TEST(HawkesPredictorTest, MultiReferenceFormulasMatchHandComputation) {
  const std::vector<double> refs = {6 * kHour, 1 * kDay, 4 * kDay};
  const auto problem = MakeToyProblem(refs, 1200);

  for (Aggregation agg :
       {Aggregation::kArithmeticMean, Aggregation::kGeometricMean}) {
    HawkesPredictor model(ToyParams(refs, agg));
    model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
    const float* row = problem.x.Row(3);
    const double alpha = model.PredictAlpha(row);
    const double delta = 2 * kDay;

    std::vector<double> inc(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      inc[i] = std::max(std::expm1(model.count_model(i).Predict(row)), 0.0);
    }
    double expected;
    if (agg == Aggregation::kArithmeticMean) {
      double sum = 0.0;
      for (size_t i = 0; i < refs.size(); ++i) {
        sum += inc[i] / -std::expm1(-alpha * refs[i]);
      }
      expected = sum / refs.size() * -std::expm1(-alpha * delta);
    } else {
      double log_sum = 0.0;
      for (size_t i = 0; i < refs.size(); ++i) {
        log_sum += std::log(std::max(inc[i], 1e-9)) -
                   std::log(-std::expm1(-alpha * refs[i]));
      }
      expected = std::exp(log_sum / refs.size() + std::log(-std::expm1(-alpha * delta)));
    }
    EXPECT_NEAR(model.PredictIncrement(row, delta), expected,
                1e-9 * (1.0 + expected))
        << AggregationName(agg);
  }
}

TEST(HawkesPredictorTest, AlphaPredictionClamped) {
  const double ref = 1 * kDay;
  auto params = ToyParams({ref});
  params.alpha_min = 1.0 / kDay;
  params.alpha_max = 2.0 / kDay;
  const auto problem = MakeToyProblem({ref}, 500);
  HawkesPredictor model(params);
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  for (size_t i = 0; i < 50; ++i) {
    const double alpha = model.PredictAlpha(problem.x.Row(i));
    EXPECT_GE(alpha, params.alpha_min);
    EXPECT_LE(alpha, params.alpha_max);
  }
}

TEST(HawkesPredictorTest, ZeroHorizonGivesZero) {
  const double ref = 1 * kDay;
  const auto problem = MakeToyProblem({ref}, 300);
  HawkesPredictor model(ToyParams({ref}));
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  EXPECT_EQ(model.PredictIncrement(problem.x.Row(0), 0.0), 0.0);
}

TEST(HawkesPredictorTest, PredictCountAddsObservedCount) {
  const double ref = 1 * kDay;
  const auto problem = MakeToyProblem({ref}, 300);
  HawkesPredictor model(ToyParams({ref}));
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  const float* row = problem.x.Row(0);
  EXPECT_DOUBLE_EQ(model.PredictCount(row, 100.0, ref),
                   100.0 + model.PredictIncrement(row, ref));
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// PredictStrided, the one batch routine, and the two ExampleBatch
// overloads over it must equal the per-row calls bit for bit at sizes
// around the 256-row chunk and the 32-row SIMD group, row-major
// (num_features, 1) and column-major (1, n), with and without the count
// forests, for one and three reference horizons under both aggregations.
// Horizons include 0 and infinity.
TEST(HawkesPredictorTest, BatchOverloadsMatchPerRowCallsBitForBit) {
  for (const std::vector<double>& refs :
       {std::vector<double>{1 * kDay}, std::vector<double>{6 * kHour, 1 * kDay, 3 * kDay}}) {
    for (const Aggregation agg : {Aggregation::kArithmeticMean, Aggregation::kGeometricMean}) {
      const auto problem = MakeToyProblem(refs, 1000, 11);
      HawkesPredictor model(ToyParams(refs, agg));
      model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
      Rng rng(31);
      for (const size_t n : {1u, 31u, 32u, 255u, 256u, 257u, 1000u}) {
        SCOPED_TRACE(testing::Message() << refs.size() << " refs, "
                                        << AggregationName(agg) << ", " << n << " rows");
        const size_t width = problem.x.num_features();
        gbdt::DataMatrix x(n, width);
        gbdt::ExampleBatch soa(n, width);
        std::vector<double> deltas(n);
        std::vector<double> n_s(n);
        for (size_t r = 0; r < n; ++r) {
          for (size_t f = 0; f < width; ++f) {
            const float v = problem.x.Get((r * 7) % problem.x.num_rows(), f);
            x.Set(r, f, v);
            soa.Set(r, f, v);
          }
          deltas[r] = r % 11 == 0   ? 0.0
                      : r % 13 == 0 ? std::numeric_limits<double>::infinity()
                                    : std::exp(rng.Uniform(std::log(kMinute), std::log(30 * kDay)));
          n_s[r] = std::floor(rng.Uniform(0.0, 1e4));
        }
        const double shared = deltas[n - 1] == 0.0 ? kDay : deltas[n - 1];
        const std::vector<double> shared_deltas(n, shared);

        // Rows as PredictStrided reads them: (row_stride, feat_stride).
        struct Layout {
          const float* data;
          size_t row_stride;
          size_t feat_stride;
        };
        const Layout layouts[] = {{x.Row(0), width, 1}, {soa.data(), 1, soa.feature_stride()}};
        std::vector<double> alpha_only[2], alphas[2], inc[2], inc_shared[2];
        for (int l = 0; l < 2; ++l) {
          const Layout& rows = layouts[l];
          alpha_only[l].resize(n);
          alphas[l].resize(n);
          inc[l].resize(n);
          inc_shared[l].resize(n);
          model.PredictStrided(rows.data, n, rows.row_stride, rows.feat_stride, nullptr,
                               nullptr, alpha_only[l].data());
          model.PredictStrided(rows.data, n, rows.row_stride, rows.feat_stride,
                               deltas.data(), inc[l].data(), alphas[l].data());
          model.PredictStrided(rows.data, n, rows.row_stride, rows.feat_stride,
                               shared_deltas.data(), inc_shared[l].data(), nullptr);
        }
        std::vector<double> count_alphas;
        const std::vector<double> shared_batch = model.PredictIncrementBatch(soa, shared);
        const std::vector<double> count_batch =
            model.PredictCountBatch(soa, n_s, deltas, &count_alphas);
        for (size_t r = 0; r < n; ++r) {
          const float* row = x.Row(r);
          const double alpha = model.PredictAlpha(row);
          const double increment = model.PredictIncrement(row, deltas[r]);
          const double increment_shared = model.PredictIncrement(row, shared);
          const double count = model.PredictCount(row, n_s[r], deltas[r]);
          for (int l = 0; l < 2; ++l) {
            ASSERT_TRUE(SameBits(alpha_only[l][r], alpha)) << "layout " << l << " row " << r;
            ASSERT_TRUE(SameBits(alphas[l][r], alpha)) << "layout " << l << " row " << r;
            ASSERT_TRUE(SameBits(inc[l][r], increment)) << "layout " << l << " row " << r;
            ASSERT_TRUE(SameBits(inc_shared[l][r], increment_shared))
                << "layout " << l << " row " << r;
            ASSERT_TRUE(SameBits(n_s[r] + inc[l][r], count)) << "layout " << l << " row " << r;
          }
          ASSERT_TRUE(SameBits(count_alphas[r], alpha)) << "row " << r;
          ASSERT_TRUE(SameBits(shared_batch[r], increment_shared)) << "row " << r;
          ASSERT_TRUE(SameBits(count_batch[r], count)) << "row " << r;
        }
      }
    }
  }
}

// The forests are walked through the instrument-free
// GbdtRegressor::PredictStrided; the predictor itself counts every row
// each forest scores.
TEST(HawkesPredictorTest, BatchCallsCountEveryRowEachForestScores) {
  const std::vector<double> refs{6 * kHour, 1 * kDay};
  const auto problem = MakeToyProblem(refs, 600);
  HawkesPredictor model(ToyParams(refs));
  model.Fit(problem.x, problem.log1p_increments, problem.alpha_targets);
  obs::Counter* const rows_scored =
      obs::MetricsRegistry::Global().GetCounter("horizon_gbdt_rows_scored_total");
  const size_t n = problem.x.num_rows();
  const size_t width = problem.x.num_features();
  const std::vector<double> deltas(n, kDay);
  std::vector<double> out(n);
  const uint64_t start = rows_scored->Value();
  model.PredictStrided(problem.x.Row(0), n, width, 1, deltas.data(), out.data(), nullptr);
  EXPECT_EQ(rows_scored->Value() - start, n * (refs.size() + 1));
  const uint64_t after_count = rows_scored->Value();
  model.PredictStrided(problem.x.Row(0), n, width, 1, nullptr, nullptr, out.data());
  EXPECT_EQ(rows_scored->Value() - after_count, n);
}

TEST(HawkesPredictorTest, AggregationNames) {
  EXPECT_STREQ(AggregationName(Aggregation::kArithmeticMean), "arithmetic");
  EXPECT_STREQ(AggregationName(Aggregation::kGeometricMean), "geometric");
}

}  // namespace
}  // namespace horizon::core
