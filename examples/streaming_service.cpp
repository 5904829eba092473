// Streaming deployment: a PredictionService ingesting the interleaved
// event stream of a whole platform -- the "operate at global scale" shape
// from Sec. 1.  Items register on creation, events arrive in global time
// order, periodic sweeps retire dead items, and a live "virality board"
// (top-k by predicted next-day views) is produced on the fly.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "core/trainer.h"
#include "datagen/event_stream.h"
#include "eval/split.h"
#include "serving/prediction_service.h"

using namespace horizon;

int main() {
  std::printf("== streaming prediction service ==\n\n");

  // Train a model offline on historical data.
  datagen::GeneratorConfig gen_config;
  gen_config.num_pages = 100;
  gen_config.num_posts = 900;
  gen_config.base_mean_size = 120.0;
  gen_config.seed = 77;
  const auto history = datagen::Generator(gen_config).Generate();
  const features::FeatureExtractor extractor(stream::TrackerConfig{});
  std::vector<size_t> all(history.cascades.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  core::ExampleSetOptions options;
  options.reference_horizons = {6 * kHour, 1 * kDay};
  const auto examples = core::BuildExampleSet(history, all, extractor, options);
  core::HawkesPredictorParams params;
  params.reference_horizons = options.reference_horizons;
  core::HawkesPredictor model(params);
  model.Fit(examples.x, examples.log1p_increments, examples.alpha_targets);
  std::printf("offline: trained HWK(6h,1d) on %zu examples\n", examples.size());

  // Fresh traffic: a new day's worth of posts, interleaved into one stream.
  gen_config.num_posts = 400;
  gen_config.seed = 78;
  const auto live = datagen::Generator(gen_config).Generate();
  datagen::EventStreamOptions stream_options;
  stream_options.max_age = 2 * kDay;
  stream_options.include_comments = false;
  stream_options.include_reactions = false;
  const auto stream_events = datagen::BuildEventStream(live, stream_options);
  std::printf("live stream: %zu events across %zu items\n\n", stream_events.size(),
              live.cascades.size());

  serving::ServiceConfig service_config;
  service_config.idle_retirement_age = 5 * kDay;
  serving::PredictionService service(&model, &extractor, service_config);
  for (size_t i = 0; i < live.cascades.size(); ++i) {
    const auto& cascade = live.cascades[i];
    // Ids are unique by construction; registration cannot fail here.
    (void)service.RegisterItem(static_cast<int64_t>(i),
                               cascade.post.creation_time,
                               live.PageOf(cascade.post), cascade.post);
  }

  Timer timer;
  size_t processed = 0;
  double next_board = 12 * kHour;
  for (const datagen::PlatformEvent& event : stream_events) {
    if (event.time >= next_board) {
      // Scan mode (no ids, top_k > 0) ranks every live item.  A finite s
      // and a positive delta cannot be rejected.
      serving::QueryRequest scan;
      scan.s = event.time;
      scan.delta = 1 * kDay;
      scan.top_k = 3;
      const auto board = service.BatchQuery(scan);
      std::printf("t=%5.1fh virality board:", event.time / kHour);
      for (const serving::ItemPrediction& p : board->results) {
        std::printf("  item %3lld (+%.0f views/d)", static_cast<long long>(p.item_id),
                    p.prediction.predicted_views - p.prediction.observed_views);
      }
      std::printf("\n");
      next_board += 12 * kHour;
    }
    // Events for already-retired items are dropped by design (late
    // stragglers); the demo keeps streaming.
    (void)service.Ingest(event.post_id, event.type, event.time);
    ++processed;
  }
  const double elapsed = timer.ElapsedSeconds();
  std::printf("\nprocessed %zu events in %.2f s (%.0fk events/s), %zu live items\n",
              processed, elapsed, processed / elapsed / 1e3, service.LiveItems());

  const size_t retired = service.RetireDeadItems(16 * kDay);
  std::printf("retirement sweep at day 16: retired %zu items, %zu remain\n",
              retired, service.LiveItems());
  std::printf("stats: %llu registered, %llu events, %llu queries\n",
              static_cast<unsigned long long>(service.stats().items_registered),
              static_cast<unsigned long long>(service.stats().events_ingested),
              static_cast<unsigned long long>(service.stats().queries_answered));
  return 0;
}
