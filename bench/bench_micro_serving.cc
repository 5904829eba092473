// Micro-benchmark (google-benchmark): concurrent serving-path throughput.
//
// Measures aggregate ingest events/sec, query predictions/sec, and a mixed
// ingest+query workload against one shared sharded PredictionService at
// 1/2/4/8 client threads, plus the single-caller TopK scan (which fans out
// over shards internally).  Each item is written by exactly one thread
// (the tracker's per-item event-time ordering contract); the reported
// items_per_second is the aggregate across threads.
//
// Unless --benchmark_out is given, results are also written to
// BENCH_serving.json (google-benchmark JSON format).  The ingest and
// query benchmarks also export lat_p50_us / lat_p95_us / lat_p99_us
// counters extracted from the service's own latency histograms, so the
// JSON carries tail latency alongside throughput.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "obs/metrics.h"
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

constexpr int64_t kItems = 512;

/// Registers kItems items (ids 0..kItems-1) against the shared model.
serving::PredictionService* MakeLoadedService(bool feed_events) {
  Env& env = GetEnv();
  auto* service = new serving::PredictionService(&env.model, &env.extractor,
                                                 serving::ServiceConfig{});
  for (int64_t id = 0; id < kItems; ++id) {
    const auto& cascade =
        env.dataset.cascades[static_cast<size_t>(id) % env.dataset.cascades.size()];
    // Setup over generated data; ids are unique so registration cannot fail.
    (void)service->RegisterItem(id, 0.0, env.dataset.PageOf(cascade.post),
                                cascade.post);
    if (!feed_events) continue;
    size_t fed = 0;
    for (const auto& e : cascade.views) {
      if (e.time >= 6 * kHour || fed >= 100) break;
      (void)service->Ingest(id, stream::EngagementType::kView, e.time);  // measured op; status checked by tests, not benches
      ++fed;
    }
  }
  return service;
}

/// Resets the named latency histogram so the percentiles published after
/// the timed loop reflect only this benchmark's observations.
obs::Histogram* ResetLatencyHistogram(const char* metric) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(metric);
  h->Reset();
  return h;
}

/// Publishes p50/p95/p99 (microseconds) from a service latency histogram
/// as benchmark counters; they land in the JSON report per run.
void PublishLatencyPercentiles(benchmark::State& state, const char* metric) {
  const obs::Histogram* h =
      obs::MetricsRegistry::Global().GetHistogram(metric);
  if (h->Count() == 0) return;
  state.counters["lat_p50_us"] = h->Quantile(0.50) * 1e6;
  state.counters["lat_p95_us"] = h->Quantile(0.95) * 1e6;
  state.counters["lat_p99_us"] = h->Quantile(0.99) * 1e6;
}

// -- Ingest throughput: each thread streams events into its own item stripe.

void BM_ServingIngest(benchmark::State& state) {
  static serving::PredictionService* service = nullptr;
  if (state.thread_index() == 0) {
    service = MakeLoadedService(/*feed_events=*/false);
    ResetLatencyHistogram("horizon_serving_ingest_latency_seconds");
  }
  const int threads = state.threads();
  int64_t id = state.thread_index();
  double t = 1.0;
  for (auto _ : state) {
    (void)service->Ingest(id, stream::EngagementType::kView, t);  // measured op; status checked by tests, not benches
    id += threads;
    if (id >= kItems) {
      id = state.thread_index();
      t += 1.0;  // keep per-item event times strictly increasing
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    PublishLatencyPercentiles(state, "horizon_serving_ingest_latency_seconds");
    delete service;
    service = nullptr;
  }
}
BENCHMARK(BM_ServingIngest)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

// -- Query throughput: every thread queries the whole (pre-fed) item set.

void BM_ServingQuery(benchmark::State& state) {
  static serving::PredictionService* service = nullptr;
  if (state.thread_index() == 0) {
    service = MakeLoadedService(/*feed_events=*/true);
    ResetLatencyHistogram("horizon_serving_query_latency_seconds");
  }
  int64_t id = state.thread_index();
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->Query(id, 6 * kHour, 1 * kDay));
    id = (id + 1) % kItems;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    PublishLatencyPercentiles(state, "horizon_serving_query_latency_seconds");
    delete service;
    service = nullptr;
  }
}
BENCHMARK(BM_ServingQuery)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

// -- BatchQuery: one caller resolves the whole item set per call; the
//    service batches every row through the forests in one pass.

void BM_ServingBatchQuery(benchmark::State& state) {
  serving::PredictionService* service = MakeLoadedService(/*feed_events=*/true);
  serving::QueryRequest request;
  for (int64_t id = 0; id < kItems; ++id) request.ids.push_back(id);
  request.s = 6 * kHour;
  request.delta = 1 * kDay;
  ResetLatencyHistogram("horizon_serving_batch_query_latency_seconds");
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->BatchQuery(request));
  }
  state.SetItemsProcessed(state.iterations() * kItems);
  PublishLatencyPercentiles(state,
                            "horizon_serving_batch_query_latency_seconds");
  delete service;
}
BENCHMARK(BM_ServingBatchQuery)->Unit(benchmark::kMillisecond);

// -- Mixed workload: 4 ingests then 1 query per round, per-thread stripe.

void BM_ServingMixed(benchmark::State& state) {
  static serving::PredictionService* service = nullptr;
  if (state.thread_index() == 0) service = MakeLoadedService(/*feed_events=*/false);
  const int threads = state.threads();
  int64_t id = state.thread_index();
  double t = 1.0;
  int step = 0;
  for (auto _ : state) {
    if (step < 4) {
      (void)service->Ingest(id, stream::EngagementType::kView, t);  // measured op; status checked by tests, not benches
      ++step;
    } else {
      // Querying the item just written: s == t satisfies the snapshot
      // ordering contract without coordination across threads.
      benchmark::DoNotOptimize(service->Query(id, t, 1 * kDay));
      step = 0;
      id += threads;
      if (id >= kItems) {
        id = state.thread_index();
        t += 1.0;
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete service;
    service = nullptr;
  }
}
BENCHMARK(BM_ServingMixed)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

// -- IngestBatch: one caller, shard-parallel application.

void BM_ServingIngestBatch(benchmark::State& state) {
  serving::PredictionService* service = MakeLoadedService(/*feed_events=*/false);
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<serving::IngestEvent> events(batch);
  double t = 1.0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      events[i] = {static_cast<int64_t>(i % kItems),
                   stream::EngagementType::kView, t};
    }
    benchmark::DoNotOptimize(service->IngestBatch(events));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  delete service;
}
BENCHMARK(BM_ServingIngestBatch)->Arg(1024)->Arg(8192);

// -- TopK: one caller runs BatchQuery scan mode; the service scans shards
//    in parallel, each through the forests 64 items at a time.

void BM_ServingTopK(benchmark::State& state) {
  serving::PredictionService* service = MakeLoadedService(/*feed_events=*/true);
  serving::QueryRequest scan;
  scan.s = 6 * kHour;
  scan.delta = 1 * kDay;
  scan.top_k = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service->BatchQuery(scan));
  }
  // Every live item is scored per call.
  state.SetItemsProcessed(state.iterations() * kItems);
  delete service;
}
BENCHMARK(BM_ServingTopK)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Default to emitting BENCH_serving.json unless the caller already
  // directs the report elsewhere.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_serving.json";
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
