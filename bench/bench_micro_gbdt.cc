// Micro-benchmark (google-benchmark): GBDT inference and training cost.
//
// The headline trajectory is batch predictions/s across the inference
// paths introduced by the vectorized hot-path rework:
//
//   BM_GbdtBatchFlatScalar     FlatForest::PredictRows (the pre-rework
//                              depth-first scalar baseline)
//   BM_GbdtBatchBlocked/<k>    BlockForest::PredictStrided under kernel
//                              flavor <k> (scalar | sse | avx2)
//   BM_GbdtBatchQuantized/<k>  QuantizedForest::PredictCodes (uint16
//                              rank-space codes, integer compares)
//   BM_GbdtKernelRows/<k>/<n> float kernel <k> called directly on <n>
//                              row-major rows, below PredictStrided's
//                              dispatch: the per-row crossover that sets
//                              kernels::kSmallBatchRows (n = 1 is the
//                              single-id query shape)
//
// All batch benchmarks run single-threaded on pre-materialized inputs so
// the numbers compare kernels, not the thread pool.  Kernel flavors the
// running CPU cannot execute are skipped.  Unless --benchmark_out is
// given, results are written to BENCH_gbdt.json (google-benchmark JSON
// format), whose context also records this code's build type and the CPU
// model; the acceptance bar is blocked-AVX2 (or the widest available
// flavor) >= 5x the flat scalar baseline on the same model and batch.  The
// committed file comes from a Release build run with
// --benchmark_repetitions=5.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
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
  ExampleBatch soa;                // column-major copy of x
  std::vector<uint16_t> codes;     // quantized SoA copy of x
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
    codes = model.quantized_forest().Quantize(soa);
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

void BM_GbdtBatchFlatScalar(benchmark::State& state) {
  InferenceSetup& s = Setup();
  for (auto _ : state) {
    s.model.flat_forest().PredictRows(s.x.Row(0), kBatchRows, kNumFeatures,
                                      s.out.data());
    benchmark::DoNotOptimize(s.out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchRows));
}
BENCHMARK(BM_GbdtBatchFlatScalar)->Unit(benchmark::kMillisecond);

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
    ->Arg(static_cast<int>(SimdKernel::kSse))
    ->Arg(static_cast<int>(SimdKernel::kAvx2))
    ->Unit(benchmark::kMillisecond);

void BM_GbdtBatchQuantized(benchmark::State& state) {
  const auto flavor = static_cast<SimdKernel>(state.range(0));
  if (!PinKernel(flavor)) {
    state.SkipWithError("kernel flavor unsupported on this CPU");
    return;
  }
  InferenceSetup& s = Setup();
  for (auto _ : state) {
    s.model.quantized_forest().PredictCodes(s.codes.data(), kBatchRows,
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
BENCHMARK(BM_GbdtBatchQuantized)
    ->Arg(static_cast<int>(SimdKernel::kScalar))
    ->Arg(static_cast<int>(SimdKernel::kSse))
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
  auto* kernel = flavor == SimdKernel::kAvx2  ? kernels::PredictFloatAvx2
                 : flavor == SimdKernel::kSse ? kernels::PredictFloatSse
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
  for (const SimdKernel k :
       {SimdKernel::kScalar, SimdKernel::kSse, SimdKernel::kAvx2}) {
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
