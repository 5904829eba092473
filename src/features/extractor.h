// Feature extraction: builds the dense feature vector for (page, post,
// tracker snapshot at prediction time).  Every temporal feature is derived
// from the O(1)-state CascadeTracker snapshot, honoring the paper's
// scalability requirement.
#ifndef HORIZON_FEATURES_EXTRACTOR_H_
#define HORIZON_FEATURES_EXTRACTOR_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "datagen/cascade.h"
#include "datagen/profiles.h"
#include "features/schema.h"
#include "obs/metrics.h"
#include "stream/cascade_tracker.h"

namespace horizon::features {

/// Features fixed when a post is published: its content, its page and its
/// posting time and group.  They are schema indices [0, kStaticHead) and
/// the last kNumStaticFeatures - kStaticHead indices; every other feature
/// reads the tracker snapshot.
inline constexpr size_t kNumStaticFeatures = 32;
inline constexpr size_t kStaticHead = 29;

/// One item's static features, in the order a schema row holds them:
/// computed once, at registration, by FeatureExtractor::ExtractStatic.
using StaticFeatures = std::array<float, kNumStaticFeatures>;

/// Stateless feature extractor; the schema is fixed at construction from
/// the tracker configuration (window/landmark layouts).  The constructor
/// also registers the extraction instruments in
/// obs::MetricsRegistry::Global(), so that no extraction takes the
/// registry lock: RetireDeadItems extracts under a shard lock.
class FeatureExtractor {
 public:
  explicit FeatureExtractor(const stream::TrackerConfig& tracker_config);

  const FeatureSchema& schema() const { return schema_; }
  const stream::TrackerConfig& tracker_config() const {
    return tracker_layout_->config;
  }
  /// The layout every tracker ReplaySnapshot builds shares.
  const std::shared_ptr<const stream::TrackerLayout>& tracker_layout() const {
    return tracker_layout_;
  }

  /// Extracts the feature vector (size schema().size()).
  std::vector<float> Extract(const datagen::PageProfile& page,
                             const datagen::PostProfile& post,
                             const stream::TrackerSnapshot& snapshot) const;

  /// Extracts into a caller-provided buffer without allocating: feature i
  /// is written to out[i * stride].  Stride 1 fills one row-major row;
  /// with stride = batch.feature_stride() and out =
  /// batch.MutableRowBase(row) it fills one row of a column-major
  /// gbdt::ExampleBatch in place, so batches reach the SIMD inference
  /// kernels without a transposition pass.  Thread-safe: the extractor is
  /// immutable after construction.
  void ExtractIntoStrided(const datagen::PageProfile& page,
                          const datagen::PostProfile& post,
                          const stream::TrackerSnapshot& snapshot, float* out,
                          size_t stride) const;

  /// The item's static features: the values the profile-taking calls
  /// above write at the static schema indices.  Allocation-free and
  /// uninstrumented, so registration can afford it.
  static StaticFeatures ExtractStatic(const datagen::PageProfile& page,
                                      const datagen::PostProfile& post);

  /// ExtractIntoStrided from a static-feature record: writes the same row
  /// as the profile-taking form given the profiles `statics` came from,
  /// computing only the temporal features.
  void ExtractIntoStrided(const StaticFeatures& statics,
                          const stream::TrackerSnapshot& snapshot, float* out,
                          size_t stride) const;

  /// Convenience: replays a generated cascade's engagement events with age
  /// < observe_age into a fresh tracker and returns its snapshot.  (Real
  /// deployments keep trackers incrementally; experiments replay.)
  stream::TrackerSnapshot ReplaySnapshot(const datagen::Cascade& cascade,
                                         double observe_age) const;

 private:
  std::shared_ptr<const stream::TrackerLayout> tracker_layout_;
  FeatureSchema schema_;
  obs::Histogram* extract_latency_;  ///< sampled 1 in 64
  obs::Counter* rows_extracted_;
};

}  // namespace horizon::features

#endif  // HORIZON_FEATURES_EXTRACTOR_H_
