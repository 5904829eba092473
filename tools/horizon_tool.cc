// horizon_tool -- command-line driver for the library.
//
//   horizon_tool generate --out DIR [--posts N] [--pages N] [--seed S]
//       Generate a synthetic workload and write it as CSV.
//
//   horizon_tool train --data DIR --model FILE [--refs 6h,1d,4d]
//       Train an HWK predictor on a CSV workload and serialize it.
//
//   horizon_tool predict --data DIR --model FILE --post ID --time AGE
//                        --horizon DELTA
//       Predict one post's views at AGE + DELTA.
//
//   horizon_tool evaluate --data DIR --model FILE [--horizon DELTA]
//       Median APE / Kendall tau / RMSE of the model on the workload.
//
//   horizon_tool checkpoint --data DIR --model FILE --out CKPTDIR
//                           [--time AGE]
//       Build a PredictionService over the workload (events up to AGE,
//       default 6h), write a crash-safe checkpoint of its live state and
//       print its bytes and bytes per live item.
//
//   horizon_tool restore --model FILE --ckpt CKPTDIR
//                        [--post ID --time AGE --horizon DELTA]
//       Reload a checkpointed service (CRC-verified) and answer a query
//       from the restored state; no dataset needed.
//
//   horizon_tool selftest
//       Run generate -> train -> predict -> evaluate -> checkpoint ->
//       restore in a temp directory.
//
//   horizon_tool stats [--format prometheus|json]
//       Exercise the serving stack on a small in-process synthetic
//       workload (register/ingest/query/top-k/error paths), then dump
//       the process-local metrics registry in Prometheus text
//       exposition format (default) or as JSON.
//
//   horizon_tool sim --seed N [--seeds K] [--steps M] [--faults F]
//                    [--items I] [--verbose 1]
//       Deterministic simulation: drive a sharded PredictionService and a
//       single-threaded reference model through the seeded op schedule
//       (--steps rounds, fault schedule F in
//       none|crash|transient|corrupt|mixed) and compare them after every
//       op.  --seeds K runs seeds N..N+K-1.  On divergence prints the
//       failing seed, the divergence, and a minimized repro trace, and
//       exits 1.  Rerunning with the same flags reproduces the run
//       exactly.
//
// Durations accept the forms "90s", "30m", "6h", "2d".  A flag the
// subcommand does not read, or a flag without a value, is an error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "core/hawkes_predictor.h"
#include "core/trainer.h"
#include "datagen/io.h"
#include "eval/metrics.h"
#include "eval/split.h"
#include "features/extractor.h"
#include "serving/prediction_service.h"
#include "sim/simulator.h"

#include <sstream>

namespace {

using namespace horizon;

/// Parses "6h" / "30m" / "2d" / "90s" into seconds; nullopt on error.
std::optional<double> ParseDuration(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || value < 0.0) return std::nullopt;
  const std::string suffix = end;
  if (suffix == "s" || suffix.empty()) return value;
  if (suffix == "m") return value * kMinute;
  if (suffix == "h") return value * kHour;
  if (suffix == "d") return value * kDay;
  return std::nullopt;
}

/// Parses "6h,1d,4d" into seconds.
std::optional<std::vector<double>> ParseDurationList(const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto d = ParseDuration(item);
    if (!d.has_value()) return std::nullopt;
    out.push_back(*d);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// Trivial --key value argument parser.
std::map<std::string, std::string> ParseFlags(int argc, char** argv, int from) {
  std::map<std::string, std::string> flags;
  for (int i = from; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    flags[key] = argv[i + 1];
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int Fail(const char* message) {
  std::fprintf(stderr, "error: %s\n", message);
  return 1;
}

int CmdGenerate(const std::map<std::string, std::string>& flags) {
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) return Fail("generate requires --out DIR");
  datagen::GeneratorConfig config;
  config.num_posts = std::atoi(FlagOr(flags, "posts", "1000").c_str());
  config.num_pages = std::atoi(FlagOr(flags, "pages", "150").c_str());
  config.seed = static_cast<uint64_t>(std::atoll(FlagOr(flags, "seed", "1").c_str()));
  if (config.num_posts <= 0 || config.num_pages <= 0) {
    return Fail("--posts/--pages must be positive");
  }
  const auto dataset = datagen::Generator(config).Generate();
  if (!datagen::SaveDatasetCsv(dataset, out)) {
    return Fail("failed to write CSVs (does the directory exist?)");
  }
  size_t events = 0;
  for (const auto& c : dataset.cascades) events += c.views.size();
  std::printf("wrote %zu cascades (%zu view events) to %s\n",
              dataset.cascades.size(), events, out.c_str());
  return 0;
}

int CmdTrain(const std::map<std::string, std::string>& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  if (data_dir.empty() || model_path.empty()) {
    return Fail("train requires --data DIR and --model FILE");
  }
  const auto refs = ParseDurationList(FlagOr(flags, "refs", "6h,1d,4d"));
  if (!refs.has_value()) return Fail("bad --refs (expected e.g. 6h,1d,4d)");

  const auto dataset = datagen::LoadDatasetCsv(data_dir);
  if (!dataset.has_value()) return Fail("failed to load dataset CSVs");

  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  std::vector<size_t> all(dataset->cascades.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = *refs;
  const auto examples = core::BuildExampleSet(*dataset, all, extractor, options);

  core::HawkesPredictorParams params;
  params.reference_horizons = *refs;
  core::HawkesPredictor model(params);
  model.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);

  // Written to a temp file and renamed over --model: a crash mid-write
  // leaves the old file or none, never a torn one.
  const Status wrote = io::WriteFileAtomic(model_path, model.Serialize());
  if (!wrote.ok()) {
    std::fprintf(stderr, "error: failed to write model: %s\n", wrote.ToString().c_str());
    return 1;
  }
  std::printf("trained HWK on %zu examples from %zu cascades; model -> %s\n",
              examples.size(), dataset->cascades.size(), model_path.c_str());
  return 0;
}

/// Loads a model that reads the rows `extractor` writes (the forests index
/// features by position); otherwise prints why and returns nullopt.
std::optional<core::HawkesPredictor> LoadModel(
    const std::string& path, const features::FeatureExtractor& extractor) {
  const StatusOr<std::string> text = io::ReadFile(path);
  core::HawkesPredictor model;
  if (!text.ok() || !model.Deserialize(*text)) {
    Fail("failed to load model");
    return std::nullopt;
  }
  if (model.num_features() != extractor.schema().size()) {
    std::fprintf(stderr, "error: model reads %zu features, extractor writes %zu\n",
                 model.num_features(), extractor.schema().size());
    return std::nullopt;
  }
  return model;
}

int CmdPredict(const std::map<std::string, std::string>& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  const auto time = ParseDuration(FlagOr(flags, "time", "6h"));
  const auto horizon = ParseDuration(FlagOr(flags, "horizon", "1d"));
  const int post_id = std::atoi(FlagOr(flags, "post", "0").c_str());
  if (data_dir.empty() || model_path.empty()) {
    return Fail("predict requires --data DIR and --model FILE");
  }
  if (!time.has_value() || !horizon.has_value()) {
    return Fail("bad --time/--horizon duration");
  }
  const auto dataset = datagen::LoadDatasetCsv(data_dir);
  if (!dataset.has_value()) return Fail("failed to load dataset CSVs");
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  auto model = LoadModel(model_path, extractor);
  if (!model.has_value()) return 1;

  const datagen::Cascade* cascade = nullptr;
  for (const auto& c : dataset->cascades) {
    if (c.post.id == post_id) cascade = &c;
  }
  if (cascade == nullptr) return Fail("unknown --post id");

  const auto snapshot = extractor.ReplaySnapshot(*cascade, *time);
  const auto row =
      extractor.Extract(dataset->PageOf(cascade->post), cascade->post, snapshot);
  const double n_s = static_cast<double>(cascade->ViewsBefore(*time));
  const double predicted = model->PredictCount(row.data(), n_s, *horizon);
  const double actual = n_s + core::TrueIncrement(*cascade, *time, *horizon);
  std::printf("post %d at age %s: N(s) = %.0f\n", post_id,
              FormatDuration(*time).c_str(), n_s);
  std::printf("  predicted N(s + %s) = %.0f   (actual in dataset: %.0f)\n",
              FormatDuration(*horizon).c_str(), predicted, actual);
  std::printf("  predicted alpha = %.3f / day\n",
              model->PredictAlpha(row.data()) * kDay);
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  const auto horizon = ParseDuration(FlagOr(flags, "horizon", "1d"));
  if (data_dir.empty() || model_path.empty()) {
    return Fail("evaluate requires --data DIR and --model FILE");
  }
  if (!horizon.has_value()) return Fail("bad --horizon");
  const auto dataset = datagen::LoadDatasetCsv(data_dir);
  if (!dataset.has_value()) return Fail("failed to load dataset CSVs");
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  auto model = LoadModel(model_path, extractor);
  if (!model.has_value()) return 1;

  std::vector<size_t> all(dataset->cascades.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = {*horizon};
  options.seed = 123;
  const auto examples = core::BuildExampleSet(*dataset, all, extractor, options);

  std::vector<double> pred, truth;
  for (size_t i = 0; i < examples.size(); ++i) {
    const auto& ref = examples.refs[i];
    pred.push_back(ref.n_s + model->PredictIncrement(examples.x.Row(i), *horizon));
    truth.push_back(ref.n_s + core::TrueIncrement(dataset->cascades[ref.cascade_index],
                                                  ref.prediction_age, *horizon));
  }
  const auto metrics = eval::ComputeMetrics(pred, truth);
  std::printf("horizon %s over %zu examples: Median APE %.3f, Kendall tau %.3f, "
              "RMSE %.3g\n",
              FormatDuration(*horizon).c_str(), metrics.n, metrics.median_ape,
              metrics.kendall_tau, metrics.rmse);
  return 0;
}

int CmdCheckpoint(const std::map<std::string, std::string>& flags) {
  const std::string data_dir = FlagOr(flags, "data", "");
  const std::string model_path = FlagOr(flags, "model", "");
  const std::string out = FlagOr(flags, "out", "");
  const auto time = ParseDuration(FlagOr(flags, "time", "6h"));
  if (data_dir.empty() || model_path.empty() || out.empty()) {
    return Fail("checkpoint requires --data DIR, --model FILE and --out CKPTDIR");
  }
  if (!time.has_value()) return Fail("bad --time duration");
  const auto dataset = datagen::LoadDatasetCsv(data_dir);
  if (!dataset.has_value()) return Fail("failed to load dataset CSVs");
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  auto model = LoadModel(model_path, extractor);
  if (!model.has_value()) return 1;

  serving::PredictionService service(&*model, &extractor, serving::ServiceConfig{});
  for (const auto& cascade : dataset->cascades) {
    const int64_t id = cascade.post.id;
    // Dataset post ids are unique; a duplicate would only skip the item.
    (void)service.RegisterItem(id, 0.0, dataset->PageOf(cascade.post),
                               cascade.post);
    for (const auto& e : cascade.views) {
      if (e.time >= *time) break;
      (void)service.Ingest(id, stream::EngagementType::kView, e.time);  // events of a just-registered item cannot miss
    }
    for (double t : cascade.share_times) {
      if (t >= *time) break;
      (void)service.Ingest(id, stream::EngagementType::kShare, t);  // events of a just-registered item cannot miss
    }
    for (double t : cascade.comment_times) {
      if (t >= *time) break;
      (void)service.Ingest(id, stream::EngagementType::kComment, t);  // events of a just-registered item cannot miss
    }
    for (double t : cascade.reaction_times) {
      if (t >= *time) break;
      (void)service.Ingest(id, stream::EngagementType::kReaction, t);  // events of a just-registered item cannot miss
    }
  }
  const Status ckpt_status = service.Checkpoint(out);
  if (!ckpt_status.ok()) {
    std::fprintf(stderr, "error: checkpoint failed: %s\n",
                 ckpt_status.ToString().c_str());
    return 1;
  }
  const auto stats = service.stats();
  std::printf("checkpointed %zu live items (%llu events) at age %s -> %s\n",
              service.LiveItems(),
              static_cast<unsigned long long>(stats.events_ingested),
              FormatDuration(*time).c_str(), out.c_str());
  const double bytes =
      service.metrics().GetGauge("horizon_serving_checkpoint_bytes")->Value();
  std::printf("  %.0f bytes, %.1f per live item\n", bytes,
              bytes / static_cast<double>(std::max<size_t>(service.LiveItems(), 1)));
  return 0;
}

int CmdRestore(const std::map<std::string, std::string>& flags) {
  const std::string model_path = FlagOr(flags, "model", "");
  const std::string ckpt = FlagOr(flags, "ckpt", "");
  if (model_path.empty() || ckpt.empty()) {
    return Fail("restore requires --model FILE and --ckpt CKPTDIR");
  }
  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  auto model = LoadModel(model_path, extractor);
  if (!model.has_value()) return 1;

  serving::PredictionService service(&*model, &extractor, serving::ServiceConfig{});
  const Status restore_status = service.Restore(ckpt);
  if (!restore_status.ok()) {
    std::fprintf(stderr, "error: restore failed: %s\n",
                 restore_status.ToString().c_str());
    return 1;
  }
  const auto stats = service.stats();
  std::printf("restored %zu live items (%llu events ingested before checkpoint)\n",
              service.LiveItems(),
              static_cast<unsigned long long>(stats.events_ingested));

  const std::string post = FlagOr(flags, "post", "");
  if (!post.empty()) {
    const auto time = ParseDuration(FlagOr(flags, "time", "6h"));
    const auto horizon = ParseDuration(FlagOr(flags, "horizon", "1d"));
    if (!time.has_value() || !horizon.has_value()) {
      return Fail("bad --time/--horizon duration");
    }
    const int64_t id = std::atoll(post.c_str());
    serving::QueryRequest request;
    request.ids = {id};
    request.s = *time;
    request.delta = *horizon;
    const auto response = service.BatchQuery(request);
    if (!response.ok()) return Fail(response.status().ToString().c_str());
    if (!response->errors.empty()) {
      std::fprintf(stderr, "error: query for post %lld failed: %s\n",
                   static_cast<long long>(id),
                   response->errors.front().status.ToString().c_str());
      return 1;
    }
    const auto& result = response->results.front().prediction;
    std::printf("post %lld at age %s: N(s) = %.0f, predicted N(s + %s) = %.0f "
                "(alpha %.3f / day)\n",
                static_cast<long long>(id), FormatDuration(*time).c_str(),
                result.observed_views, FormatDuration(*horizon).c_str(),
                result.predicted_views, result.alpha * kDay);
  }
  return 0;
}

int CmdStats(const std::map<std::string, std::string>& flags) {
  const std::string format = FlagOr(flags, "format", "prometheus");
  if (format != "prometheus" && format != "json") {
    return Fail("bad --format (expected prometheus or json)");
  }

  // The registry is process-local, so drive a small synthetic workload
  // through the serving stack first: every exposed series below reflects
  // real instrumented code paths, which makes this command usable as a
  // CI smoke check on the exposition formats.
  datagen::GeneratorConfig config;
  config.num_posts = 120;
  config.num_pages = 20;
  config.seed = 7;
  const auto dataset = datagen::Generator(config).Generate();

  const features::FeatureExtractor extractor{stream::TrackerConfig{}};
  std::vector<size_t> all(dataset.cascades.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = {6 * kHour, kDay};
  const auto examples = core::BuildExampleSet(dataset, all, extractor, options);
  core::HawkesPredictorParams params;
  params.reference_horizons = {6 * kHour, kDay};
  core::HawkesPredictor model(params);
  model.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);

  serving::PredictionService service(&model, &extractor,
                                     serving::ServiceConfig{});
  std::vector<int64_t> ids;
  for (const auto& cascade : dataset.cascades) {
    const int64_t id = cascade.post.id;
    if (!service.RegisterItem(id, 0.0, dataset.PageOf(cascade.post),
                              cascade.post).ok()) {
      continue;
    }
    ids.push_back(id);
    for (const auto& e : cascade.views) {
      if (e.time >= 6 * kHour) break;
      (void)service.Ingest(id, stream::EngagementType::kView, e.time);  // events of a just-registered item cannot miss
    }
  }

  // Point queries, a scan (top-k), and deliberate error paths so the
  // error counters are non-zero in the dump.
  serving::QueryRequest point;
  point.ids = ids;
  point.s = 6 * kHour;
  point.delta = kDay;
  (void)service.BatchQuery(point);
  serving::QueryRequest scan;
  scan.s = 6 * kHour;
  scan.delta = kDay;
  scan.top_k = 10;
  (void)service.BatchQuery(scan);
  (void)service.Query(-1, 6 * kHour, kDay);               // not_found
  (void)service.Ingest(-1, stream::EngagementType::kView, 0.0);  // not_found
  serving::QueryRequest bad;
  bad.ids = ids;
  bad.s = 6 * kHour;
  bad.delta = -1.0;
  (void)service.BatchQuery(bad);                          // invalid_argument
  (void)service.RetireDeadItems(6 * kHour);  // sets the tracker-bytes gauge

  const std::string dump = format == "json"
                               ? service.metrics().DumpJson()
                               : service.metrics().DumpPrometheus();
  std::fputs(dump.c_str(), stdout);
  return 0;
}

int CmdSim(const std::map<std::string, std::string>& flags) {
  const uint64_t seed =
      static_cast<uint64_t>(std::atoll(FlagOr(flags, "seed", "1").c_str()));
  const int num_seeds = std::atoi(FlagOr(flags, "seeds", "1").c_str());
  const int steps = std::atoi(FlagOr(flags, "steps", "24").c_str());
  const int items = std::atoi(FlagOr(flags, "items", "10").c_str());
  const std::string faults = FlagOr(flags, "faults", "mixed");
  const bool verbose = FlagOr(flags, "verbose", "0") != "0";
  if (num_seeds <= 0) return Fail("--seeds must be positive");
  if (steps <= 0) return Fail("--steps must be positive");
  if (items <= 0) return Fail("--items must be positive");
  if (!sim::IsValidFaultSchedule(faults)) {
    return Fail("bad --faults (expected none|crash|transient|corrupt|mixed)");
  }

  std::printf("building sim context (dataset + model)...\n");
  const sim::SimContext context = sim::BuildSimContext();
  sim::SimConfig config;
  config.schedule.rounds = steps;
  config.schedule.num_items = items;
  config.schedule.faults = faults;
  config.schedule.reads_before_last_event = true;
  const char* tmp = std::getenv("TMPDIR");
  config.scratch_dir = tmp != nullptr ? tmp : "/tmp";
  sim::Simulator simulator(&context, config);

  int failures = 0;
  for (int i = 0; i < num_seeds; ++i) {
    const sim::SimReport report = simulator.Run(seed + static_cast<uint64_t>(i));
    std::printf("%s\n", report.Summary().c_str());
    if (verbose && report.ok) std::fputs(report.trace.c_str(), stdout);
    if (!report.ok) {
      ++failures;
      std::printf("reproduce with: horizon_tool sim --seed %llu --steps %d "
                  "--items %d --faults %s\n",
                  static_cast<unsigned long long>(report.seed), steps, items,
                  faults.c_str());
      std::printf("--- minimized repro trace ---\n%s",
                  report.minimized_trace.empty() ? report.trace.c_str()
                                                 : report.minimized_trace.c_str());
    }
  }
  if (failures > 0) {
    std::printf("%d of %d seed(s) FAILED\n", failures, num_seeds);
    return 1;
  }
  std::printf("all %d seed(s) passed\n", num_seeds);
  return 0;
}

int CmdSelfTest() {
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                          "/horizon_tool_selftest";
  const std::string mkdir = "mkdir -p " + dir;
  if (std::system(mkdir.c_str()) != 0) return Fail("mkdir failed");
  const std::string model = dir + "/model.hwk";
  if (CmdGenerate({{"out", dir}, {"posts", "250"}, {"pages", "40"}}) != 0) return 1;
  if (CmdTrain({{"data", dir}, {"model", model}, {"refs", "6h,1d"}}) != 0) return 1;
  if (CmdPredict({{"data", dir}, {"model", model}, {"post", "3"},
                  {"time", "6h"}, {"horizon", "1d"}}) != 0) {
    return 1;
  }
  if (CmdEvaluate({{"data", dir}, {"model", model}, {"horizon", "1d"}}) != 0) {
    return 1;
  }
  const std::string ckpt = dir + "/ckpt";
  if (CmdCheckpoint({{"data", dir}, {"model", model}, {"out", ckpt},
                     {"time", "6h"}}) != 0) {
    return 1;
  }
  if (CmdRestore({{"model", model}, {"ckpt", ckpt}, {"post", "3"},
                  {"time", "6h"}, {"horizon", "1d"}}) != 0) {
    return 1;
  }
  std::printf("selftest OK\n");
  return 0;
}

/// A subcommand and the flags it reads.
struct Command {
  const char* name;
  int (*run)(const std::map<std::string, std::string>&);
  std::vector<std::string> keys;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate", CmdGenerate, {"out", "posts", "pages", "seed"}},
      {"train", CmdTrain, {"data", "model", "refs"}},
      {"predict", CmdPredict, {"data", "model", "post", "time", "horizon"}},
      {"evaluate", CmdEvaluate, {"data", "model", "horizon"}},
      {"checkpoint", CmdCheckpoint, {"data", "model", "out", "time"}},
      {"restore", CmdRestore, {"model", "ckpt", "post", "time", "horizon"}},
      {"selftest", [](const auto&) { return CmdSelfTest(); }, {}},
      {"stats", CmdStats, {"format"}},
      {"sim", CmdSim, {"seed", "seeds", "steps", "items", "faults", "verbose"}},
  };
  return commands;
}

int Usage() {
  std::fprintf(stderr,
               "usage: horizon_tool <generate|train|predict|evaluate|"
               "checkpoint|restore|selftest|stats|sim> "
               "[--key value ...]\n(see the header of tools/horizon_tool.cc)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  for (const Command& c : Commands()) {
    if (command != c.name) continue;
    if ((argc - 2) % 2 != 0) {
      std::fprintf(stderr, "error: %s: flag %s has no value\n", c.name,
                   argv[argc - 1]);
      return 2;
    }
    const auto flags = ParseFlags(argc, argv, 2);
    for (const auto& [key, value] : flags) {
      if (std::find(c.keys.begin(), c.keys.end(), key) == c.keys.end()) {
        std::fprintf(stderr, "error: %s does not take --%s\n", c.name,
                     key.c_str());
        return 2;
      }
    }
    return c.run(flags);
  }
  return Usage();
}
