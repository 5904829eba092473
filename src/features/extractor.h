// Feature extraction: builds the dense feature vector for (page, post,
// tracker snapshot at prediction time).  Every temporal feature is derived
// from the O(1)-state CascadeTracker snapshot, honoring the paper's
// scalability requirement.
#ifndef HORIZON_FEATURES_EXTRACTOR_H_
#define HORIZON_FEATURES_EXTRACTOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
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

/// Static features that are not part of a one-hot group: all but the
/// media type's and the page category's.
inline constexpr size_t kNumStaticFloats =
    kNumStaticFeatures - datagen::kNumMediaTypes - datagen::kNumPageCategories;

/// One item's static features, computed once, at registration, by
/// FeatureExtractor::ExtractStatic.  The media type's and the page
/// category's one-hot groups are kept as the index of their 1 (kNoneHot,
/// for a profile value out of range, stands for an all-0 group); the
/// other kNumStaticFloats features are floats.  84 bytes, where the
/// kNumStaticFeatures floats a row holds take 128.  VisitStatic walks it
/// in row order.
struct StaticFeatures {
  static constexpr uint8_t kNoneHot = 255;

  std::array<float, kNumStaticFloats> floats{};
  uint8_t media = kNoneHot;     ///< a datagen::MediaType
  uint8_t category = kNoneHot;  ///< a datagen::PageCategory
};

/// Walks `statics` in the order a schema row holds its features: calls
/// on_float(f) for each float and on_group(hot, size) for each one-hot
/// group, which stands for `size` features, the hot-th of them 1 and the
/// rest 0.  The media type's group leads; the page category's follows
/// the content and page floats.  `Record` is StaticFeatures or
/// const StaticFeatures; FeatureExtractor's constructor checks that this
/// order is the one its schema names.
template <typename Record, typename OnFloat, typename OnGroup>
void VisitStatic(Record& statics, OnFloat&& on_float, OnGroup&& on_group) {
  constexpr size_t kFloatsBeforeCategory = 12;
  on_group(statics.media, size_t{datagen::kNumMediaTypes});
  for (size_t k = 0; k < kFloatsBeforeCategory; ++k) on_float(statics.floats[k]);
  on_group(statics.category, size_t{datagen::kNumPageCategories});
  for (size_t k = kFloatsBeforeCategory; k < kNumStaticFloats; ++k) {
    on_float(statics.floats[k]);
  }
}

/// Calls put(value) for each of the kNumStaticFeatures features of
/// `statics`, in row order, each one-hot group expanded.
template <typename Put>
void ForEachStaticValue(const StaticFeatures& statics, Put&& put) {
  VisitStatic(statics, put, [&put](uint8_t hot, size_t size) {
    for (size_t j = 0; j < size; ++j) put(j == hot ? 1.0f : 0.0f);
  });
}

/// Counts below this bound take their log1p from a table (Log1pCount).
/// Stream totals, window counts and landmark counts are 36 of the 41
/// log1p a row's extraction computes under the default layout, and
/// nearly all are small: bench_e2e's workloads find 99.99 % of them
/// below the bound.
inline constexpr uint64_t kLog1pTableCounts = 1024;

/// The feature value of a count `n`: float(log1p(n)), read from a table
/// filled once by that same expression when n < kLog1pTableCounts and
/// computed otherwise, so the float is the same either way.
float Log1pCount(uint64_t n);

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
  /// above write at the static schema indices, built straight from the
  /// profiles.  Allocation-free and uninstrumented, so registration can
  /// afford it.
  static StaticFeatures ExtractStatic(const datagen::PageProfile& page,
                                      const datagen::PostProfile& post);

  /// ExtractIntoStrided from a static-feature record: writes the same row
  /// as the profile-taking form given the profiles `statics` came from,
  /// expanding its one-hot groups and computing only the temporal
  /// features.
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
