// Micro-benchmark (google-benchmark): checkpoint/restore latency of the
// serving stack as a function of the live-item count.
//
// Measures PredictionService::Checkpoint (shard-parallel snapshot +
// CRC-framed atomic writes) and Restore (CRC verification + re-shard) at
// 256 / 1k / 4k live items, plus the per-item CascadeTracker serialization
// round trip that dominates the blob cost.  Checkpoints are written to a
// scratch directory under TMPDIR.
//
// Unless --benchmark_out is given, results are also written to
// BENCH_checkpoint.json (google-benchmark JSON format).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "core/trainer.h"
#include "serving/prediction_service.h"

namespace {

using namespace horizon;

/// Dataset + trained model shared by every benchmark (built once).
struct Env {
  datagen::SyntheticDataset dataset;
  features::FeatureExtractor extractor{stream::TrackerConfig{}};
  core::HawkesPredictor model;

  Env()
      : dataset([] {
          datagen::GeneratorConfig config;
          config.num_pages = 30;
          config.num_posts = 200;
          config.base_mean_size = 60.0;
          config.seed = 91;
          return datagen::Generator(config).Generate();
        }()),
        model([] {
          core::HawkesPredictorParams params;
          params.reference_horizons = {1 * kDay};
          params.gbdt_count.num_trees = 40;
          params.gbdt_alpha.num_trees = 40;
          return params;
        }()) {
    std::vector<size_t> indices;
    for (size_t i = 0; i < dataset.cascades.size(); ++i) indices.push_back(i);
    core::ExampleSetOptions options;
    options.reference_horizons = {1 * kDay};
    const auto examples =
        core::BuildExampleSet(dataset, indices, extractor, options);
    model.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  }
};

Env& GetEnv() {
  static Env* env = new Env();
  return *env;
}

std::string ScratchDir() {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/horizon_bench_checkpoint";
}

/// Registers `items` items, each fed up to 50 view events.
serving::PredictionService* MakeLoadedService(int64_t items) {
  Env& env = GetEnv();
  auto* service = new serving::PredictionService(&env.model, &env.extractor,
                                                 serving::ServiceConfig{});
  for (int64_t id = 0; id < items; ++id) {
    const auto& cascade =
        env.dataset.cascades[static_cast<size_t>(id) % env.dataset.cascades.size()];
    // Setup over generated data; ids are unique so registration cannot fail.
    (void)service->RegisterItem(id, 0.0, env.dataset.PageOf(cascade.post),
                                cascade.post);
    size_t fed = 0;
    for (const auto& e : cascade.views) {
      if (e.time >= 6 * kHour || fed >= 50) break;
      (void)service->Ingest(id, stream::EngagementType::kView, e.time);
      ++fed;
    }
  }
  return service;
}

// -- Checkpoint latency vs live-item count.

void BM_Checkpoint(benchmark::State& state) {
  serving::PredictionService* service = MakeLoadedService(state.range(0));
  const std::string dir = ScratchDir();
  io::RemoveTree(dir);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->Checkpoint(dir));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  io::RemoveTree(dir);
  delete service;
}
BENCHMARK(BM_Checkpoint)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// -- Restore latency vs live-item count.

void BM_Restore(benchmark::State& state) {
  Env& env = GetEnv();
  serving::PredictionService* source = MakeLoadedService(state.range(0));
  const std::string dir = ScratchDir();
  io::RemoveTree(dir);
  if (!source->Checkpoint(dir).ok()) {
    state.SkipWithError("checkpoint failed");
    delete source;
    return;
  }
  serving::PredictionService target(&env.model, &env.extractor,
                                    serving::ServiceConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(target.Restore(dir));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  io::RemoveTree(dir);
  delete source;
}
BENCHMARK(BM_Restore)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// -- Per-item tracker serialization round trip (the blob hot path).

void BM_TrackerSerializeRoundTrip(benchmark::State& state) {
  Env& env = GetEnv();
  const auto& cascade = env.dataset.cascades[0];
  stream::CascadeTracker tracker(0.0, stream::TrackerConfig{});
  size_t fed = 0;
  for (const auto& e : cascade.views) {
    if (fed >= 200) break;
    tracker.Observe(stream::EngagementType::kView, e.time);
    ++fed;
  }
  stream::CascadeTracker restored(0.0, stream::TrackerConfig{});
  for (auto _ : state) {
    const std::string blob = tracker.Serialize();
    benchmark::DoNotOptimize(restored.Deserialize(blob));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrackerSerializeRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  // Default to emitting BENCH_checkpoint.json unless the caller already
  // directs the report elsewhere.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_checkpoint.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int argc_adj = static_cast<int>(args.size());
  benchmark::Initialize(&argc_adj, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_adj, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
