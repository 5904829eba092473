// Single-threaded reference model of the PredictionService.
//
// The simulator executes every op against both the real sharded service
// and this shadow: a plain std::map of CascadeTrackers whose rows are
// scored by each forest's depth-first FlatForest walk, not by the blocked
// kernels the service (and the model's per-row entry points) run.
// Because every blocked kernel is bit-identical to the flat walk (a
// contract the block-forest tests pin down) and tracker state round-trips
// bit-exactly, the comparison can demand EXACT equality of every observed
// count, predicted count, and alpha -- there is no tolerance to hide a
// divergence in.
#ifndef HORIZON_SIM_REFERENCE_MODEL_H_
#define HORIZON_SIM_REFERENCE_MODEL_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/hawkes_predictor.h"
#include "datagen/profiles.h"
#include "features/extractor.h"
#include "serving/prediction_service.h"
#include "stream/cascade_tracker.h"

namespace horizon::sim {

/// One reference answer for (item, s, delta).
struct RefAnswer {
  double observed = 0.0;   ///< N(s) from the shadow tracker
  double predicted = 0.0;  ///< observed + increment
  double alpha = 0.0;      ///< alpha_hat, as PredictAlpha(row) defines it
  double increment = 0.0;  ///< as PredictIncrement(row, delta) defines it
  std::vector<float> row;  ///< the feature row, for invariant checks
};

/// The shadow service.  Deliberately the simplest possible correct
/// implementation: no shards, no locks, no batching, ordered map.
class ReferenceService {
 public:
  /// Mirror of the real service's item state; the value type of State.
  struct Item {
    stream::CascadeTracker tracker;
    datagen::PageProfile page;
    datagen::PostProfile post;
  };
  /// Copyable whole-state snapshot used to model checkpoint/restore.
  using State = std::map<int64_t, Item>;

  /// `model` and `extractor` must outlive the reference and must be the
  /// same objects the real service uses.  The retirement knobs must match
  /// the real ServiceConfig.
  ReferenceService(const core::HawkesPredictor* model,
                   const features::FeatureExtractor* extractor,
                   const serving::ServiceConfig& config);

  /// kOk, or kAlreadyExists for a duplicate id.
  StatusCode Register(int64_t id, double creation_time,
                      const datagen::PageProfile& page,
                      const datagen::PostProfile& post);

  /// kOk, or kNotFound for an unknown (never registered / retired) id.
  StatusCode IngestCode(int64_t id, stream::EngagementType type, double t);

  /// kOk (answer in *out), kNotFound, or kNotYetLive (s strictly before
  /// the item's creation time -- the service's liveness rule).
  StatusCode Answer(int64_t id, double s, double delta, RefAnswer* out) const;

  /// Answers every item live at `s` (skipping not-yet-live ones), in
  /// ascending id order.  The scan-mode oracle.
  std::vector<std::pair<int64_t, RefAnswer>> Scan(double s, double delta) const;

  /// Retires items with the service's exact predicate (idle age OR
  /// Appendix A.14 death probability).  Returns the number retired.
  size_t Retire(double now);

  size_t live_items() const { return items_.size(); }
  bool Has(int64_t id) const { return items_.count(id) > 0; }

  /// All item ids, ascending.
  std::vector<int64_t> ItemIds() const;

  State SnapshotState() const { return items_; }
  void RestoreState(const State& state) { items_ = state; }

 private:
  /// The model's alpha_hat and increment for one row, every forest scored
  /// through its FlatForest walk.
  double FlatAlpha(const float* row) const;
  double FlatIncrement(const float* row, double alpha, double delta) const;

  const core::HawkesPredictor* model_;
  const features::FeatureExtractor* extractor_;
  double idle_retirement_age_;
  double death_probability_threshold_;
  State items_;
};

}  // namespace horizon::sim

#endif  // HORIZON_SIM_REFERENCE_MODEL_H_
