// Micro-benchmark (google-benchmark): GBDT inference and training cost.
//
// The headline trajectory is batch predictions/s of the blocked forest
// kernels:
//
//   BM_GbdtBatchBlocked/<k>    BlockForest::PredictStrided under kernel
//                              flavor <k> (0 = scalar, 1 = avx2)
//   BM_GbdtKernelRows/<k>/<n> float kernel <k> called directly on <n>
//                              row-major rows, below PredictStrided's
//                              dispatch: the per-row crossover that sets
//                              kernels::kSmallBatchRows (n = 1 is the
//                              single-id query shape)
//
//   BM_HawkesPredictorRow/<c> one row through the served model's shape
//                              (the model BM_HawkesPredictorFit fits),
//                              warm (c = 0) or with L1/L2 evicted before
//                              each call (c = 1)
//
// and training cost: BM_GbdtTrain on 100 uniform 255-bin features, and
// BM_HawkesPredictorFit on the real training shape -- bench_e2e's held-out
// corpus (4,000 x 111 rows, many binary and low-cardinality features) fit
// with default parameters (2 forests x 120 trees), at the pool width
// HORIZON_THREADS sets.
//
// All batch benchmarks run single-threaded on pre-materialized inputs so
// the numbers compare kernels, not the thread pool.  Kernel flavors the
// running CPU cannot execute are skipped.  Unless --benchmark_out is
// given, results are written to BENCH_gbdt.json (google-benchmark JSON
// format), whose context also records this code's build type and the CPU
// model.  The committed file comes from a Release build run with
// --benchmark_repetitions=5.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hawkes_predictor.h"
#include "core/trainer.h"
#include "datagen/generator.h"
#include "features/extractor.h"
#include "gbdt/forest_kernels.h"
#include "gbdt/gbdt.h"
#include "gbdt/simd_dispatch.h"

namespace {

using namespace horizon;
using namespace horizon::gbdt;

DataMatrix MakeData(size_t rows, size_t features, std::vector<double>* y) {
  Rng rng(11);
  DataMatrix x(rows, features);
  y->resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    double target = 0.0;
    for (size_t f = 0; f < features; ++f) {
      const double v = rng.Uniform();
      x.Set(i, f, static_cast<float>(v));
      if (f < 5) target += v;
    }
    (*y)[i] = target + rng.Normal(0.0, 0.1);
  }
  return x;
}

// Shared trained model + batch for every inference benchmark, built once:
// training is orders of magnitude slower than a single batch pass, and
// identical inputs are what make the flavors comparable.
constexpr size_t kBatchRows = 16384;
constexpr size_t kNumFeatures = 100;

struct InferenceSetup {
  GbdtRegressor model;
  DataMatrix x{0, 0};
  ExampleBatch soa;  // column-major copy of x
  std::vector<double> out;

  InferenceSetup() : model([] {
    GbdtParams params;
    params.num_trees = 80;
    params.tree.max_depth = 5;
    return params;
  }()) {
    std::vector<double> y;
    x = MakeData(kBatchRows, kNumFeatures, &y);
    model.Fit(x, y);
    soa = ExampleBatch(kBatchRows, kNumFeatures);
    for (size_t r = 0; r < kBatchRows; ++r) {
      for (size_t f = 0; f < kNumFeatures; ++f) soa.Set(r, f, x.Get(r, f));
    }
    out.resize(kBatchRows);
  }
};

InferenceSetup& Setup() {
  static InferenceSetup* setup = new InferenceSetup();
  return *setup;
}

bool Supported(SimdKernel flavor) {
  for (SimdKernel k : SupportedKernels()) {
    if (k == flavor) return true;
  }
  return false;
}

// Pins HORIZON_SIMD to `flavor` for the duration of one benchmark run.
// Returns false (benchmark should skip) when the CPU cannot execute it.
bool PinKernel(SimdKernel flavor) {
  if (!Supported(flavor)) return false;
  ::setenv("HORIZON_SIMD", SimdKernelName(flavor), /*overwrite=*/1);
  RefreshKernelFromEnv();
  return true;
}

void UnpinKernel() {
  ::unsetenv("HORIZON_SIMD");
  RefreshKernelFromEnv();
}

void BM_GbdtBatchBlocked(benchmark::State& state) {
  const auto flavor = static_cast<SimdKernel>(state.range(0));
  if (!PinKernel(flavor)) {
    state.SkipWithError("kernel flavor unsupported on this CPU");
    return;
  }
  InferenceSetup& s = Setup();
  // Column-major SoA input: row_stride 1, feature stride = num_rows --
  // the layout serving feeds the kernels.
  for (auto _ : state) {
    s.model.block_forest().PredictStrided(s.soa.data(), kBatchRows,
                                          /*row_stride=*/1,
                                          /*feat_stride=*/kBatchRows,
                                          s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  UnpinKernel();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchRows));
  state.SetLabel(SimdKernelName(flavor));
}
BENCHMARK(BM_GbdtBatchBlocked)
    ->Arg(static_cast<int>(SimdKernel::kScalar))
    ->Arg(static_cast<int>(SimdKernel::kAvx2))
    ->Unit(benchmark::kMillisecond);

void BM_GbdtKernelRows(benchmark::State& state) {
  const auto flavor = static_cast<SimdKernel>(state.range(0));
  const auto rows = static_cast<size_t>(state.range(1));
  if (!Supported(flavor)) {
    state.SkipWithError("kernel flavor unsupported on this CPU");
    return;
  }
  InferenceSetup& s = Setup();
  // The raw node pools: this case times the kernels themselves, which
  // PredictStrided would not reach for batches under kSmallBatchRows.
  const BlockForest& forest = s.model.block_forest();
  const kernels::FloatForestSpan span{
      forest.raw_features().data(), forest.raw_thresholds().data(),
      forest.raw_leaves().data(),   forest.num_trees(),
      forest.depth(),               forest.base_score(),
      forest.learning_rate()};
  auto* kernel = flavor == SimdKernel::kAvx2 ? kernels::PredictFloatAvx2
                                             : kernels::PredictFloatScalar;
  // Steps through the batch so the walk sees run-time inputs rather than
  // one cached path.
  size_t first = 0;
  for (auto _ : state) {
    kernel(span, s.x.Row(first), rows, /*row_stride=*/kNumFeatures,
           /*feat_stride=*/1, s.out.data());
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
    first = first + 2 * rows <= kBatchRows ? first + rows : 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.SetLabel(SimdKernelName(flavor));
}
BENCHMARK(BM_GbdtKernelRows)->Apply([](benchmark::internal::Benchmark* b) {
  for (const SimdKernel k : {SimdKernel::kScalar, SimdKernel::kAvx2}) {
    for (const int rows : {1, 16, 31, 32, 64}) {
      b->Args({static_cast<int>(k), rows});
    }
  }
});

void BM_GbdtPredictSingleRow(benchmark::State& state) {
  std::vector<double> y;
  const DataMatrix x = MakeData(4000, 100, &y);
  GbdtParams params;
  params.num_trees = static_cast<int>(state.range(0));
  params.tree.max_depth = static_cast<int>(state.range(1));
  GbdtRegressor model(params);
  model.Fit(x, y);
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(x.Row(row)));
    row = (row + 1) % x.num_rows();
  }
}
BENCHMARK(BM_GbdtPredictSingleRow)
    ->Args({20, 3})
    ->Args({80, 5})
    ->Args({160, 7});

void BM_GbdtTrain(benchmark::State& state) {
  std::vector<double> y;
  const DataMatrix x = MakeData(static_cast<size_t>(state.range(0)), 100, &y);
  GbdtParams params;
  params.num_trees = 40;
  params.tree.max_depth = 5;
  for (auto _ : state) {
    GbdtRegressor model(params);
    model.Fit(x, y);
    benchmark::DoNotOptimize(model.base_score());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GbdtTrain)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

/// bench_e2e's training corpus: 2,000 posts on 200 pages, mean cascade
/// 6, seed 20211215, every cascade's examples.  Built once.
const core::ExampleSet& ServedExamples() {
  static const core::ExampleSet* examples = [] {
    datagen::GeneratorConfig config;
    config.num_posts = 2000;
    config.num_pages = 200;
    config.base_mean_size = 6.0;
    config.seed = 20211215;
    const datagen::SyntheticDataset data = datagen::Generator(config).Generate();
    std::vector<size_t> indices(data.cascades.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    const features::FeatureExtractor extractor{stream::TrackerConfig{}};
    return new core::ExampleSet(
        core::BuildExampleSet(data, indices, extractor, core::ExampleSetOptions{}));
  }();
  return *examples;
}

void BM_HawkesPredictorFit(benchmark::State& state) {
  const core::ExampleSet& examples = ServedExamples();
  for (auto _ : state) {
    core::HawkesPredictor predictor;
    predictor.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
    benchmark::DoNotOptimize(&predictor);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(examples.x.num_rows()));
}
BENCHMARK(BM_HawkesPredictorFit)->Unit(benchmark::kMillisecond)->UseRealTime();

// A single-id query's forest stage on the served model's shape: the model
// BM_HawkesPredictorFit fits (2 forests x 120 trees, depth 5, 111
// features), one row at a time through HawkesPredictor::PredictStrided as
// the service's point query calls it, stepping through the corpus' rows.
// Arg 0 runs warm; arg 1 first writes a buffer twice the L2 size, so the
// forests and the row come from L3, as in live_mix, where ingest and
// scans evict them between queries.  Each call is timed alone (manual
// time), so the eviction is not counted.
void BM_HawkesPredictorRow(benchmark::State& state) {
  const bool cold = state.range(0) != 0;
  const core::ExampleSet& examples = ServedExamples();
  static const core::HawkesPredictor* predictor = [&] {
    auto* p = new core::HawkesPredictor();
    p->Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
    return p;
  }();
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::vector<char> evict(2 * static_cast<size_t>(l2 > 0 ? l2 : 2 << 20));
  const size_t rows = examples.x.num_rows();
  const size_t width = examples.x.num_features();
  const double delta = 1 * kDay;
  double increment = 0.0, alpha = 0.0;
  size_t row = 0;
  char fill = 0;
  for (auto _ : state) {
    if (cold) {
      std::memset(evict.data(), ++fill, evict.size());
      benchmark::ClobberMemory();
    }
    const auto start = std::chrono::steady_clock::now();
    predictor->PredictStrided(examples.x.Row(row), 1, width, 1, &delta, &increment,
                              &alpha);
    benchmark::DoNotOptimize(increment);
    benchmark::DoNotOptimize(alpha);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    row = row + 1 < rows ? row + 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cold ? "L1/L2 evicted" : "warm");
}
BENCHMARK(BM_HawkesPredictorRow)->Arg(0)->Arg(1)->UseManualTime();

void BM_BinnedDatasetCreate(benchmark::State& state) {
  std::vector<double> y;
  const DataMatrix x = MakeData(static_cast<size_t>(state.range(0)), 100, &y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinnedDataset::Create(x));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinnedDatasetCreate)->Arg(10000)->Unit(benchmark::kMillisecond);

/// The "model name" line of /proc/cpuinfo, or "unknown".
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

#ifndef HORIZON_BUILD_TYPE
#define HORIZON_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  // Default to emitting BENCH_gbdt.json unless the caller already directs
  // the report elsewhere.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_gbdt.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int argc_adj = static_cast<int>(args.size());
  benchmark::AddCustomContext("horizon_build_type", HORIZON_BUILD_TYPE);
  benchmark::AddCustomContext("cpu_model", CpuModel());
  benchmark::Initialize(&argc_adj, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_adj, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
