#include "features/extractor.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace horizon::features {

namespace {

using stream::EngagementType;
using stream::StreamSnapshot;
using stream::TrackerConfig;
using stream::TrackerSnapshot;

float Log1p(double v) { return static_cast<float>(std::log1p(std::max(v, 0.0))); }

/// Log1p of every count below kLog1pTableCounts.
const std::array<float, kLog1pTableCounts>& Log1pTable() {
  static const std::array<float, kLog1pTableCounts> table = [] {
    std::array<float, kLog1pTableCounts> t{};
    for (uint64_t n = 0; n < kLog1pTableCounts; ++n) {
      t[n] = Log1p(static_cast<double>(n));
    }
    return t;
  }();
  return table;
}

/// Category a given engagement stream's features belong to.
FeatureCategory CategoryOf(EngagementType type) {
  switch (type) {
    case EngagementType::kView: return FeatureCategory::kEngagementViews;
    case EngagementType::kShare: return FeatureCategory::kEngagementShares;
    case EngagementType::kComment: return FeatureCategory::kEngagementComments;
    case EngagementType::kReaction: return FeatureCategory::kEngagementReactions;
  }
  return FeatureCategory::kOther;
}

/// "<type>s/<suffix>", e.g. "views/log1p_total".
std::string StreamName(EngagementType type, const char* suffix) {
  return std::string(stream::EngagementTypeName(type)) + "s/" + suffix;
}

/// "<type>s/<suffix><duration>", e.g. "views/log1p_last_15m".
std::string StreamName(EngagementType type, const char* suffix, double seconds) {
  return StreamName(type, suffix) + FormatDuration(seconds);
}

/// The feature emitters: each calls emit(name, category, value) once per
/// feature, in a fixed order.  `name` is a thunk returning the feature's
/// name: only the constructor's schema walk calls it, so extracting a row
/// formats and allocates no strings.  The schema walk and every
/// extraction run these same two halves, so they cannot drift apart, and
/// each feature value has one implementation.
///
/// The static half: the kNumStaticFeatures features fixed when the post is
/// published, in row order.  The first kStaticHead lead a schema row; the
/// rest end it, after the temporal half.  A one-hot group is one call of
/// emit_group(field, name_of, category, size, index): `size` features,
/// the i-th named name_of(i), the index-th 1 and the rest 0 (all 0 when
/// `index` is out of range), kept in StaticFeatures::*field.
template <typename Emit, typename EmitGroup>
void EmitStatic(const datagen::PageProfile& page, const datagen::PostProfile& post,
                Emit&& emit, EmitGroup&& emit_group) {
  using FC = FeatureCategory;

  // --- Content features ---
  emit_group(&StaticFeatures::media,
             [](int m) {
               return std::string("content/media_") +
                      datagen::MediaTypeName(static_cast<datagen::MediaType>(m));
             },
             FC::kContent, datagen::kNumMediaTypes, static_cast<int>(post.media));
  emit([] { return "content/language"; }, FC::kContent,
       static_cast<float>(post.language));
  emit([] { return "content/num_mentions"; }, FC::kContent,
       static_cast<float>(post.num_mentions));
  emit([] { return "content/num_hashtags"; }, FC::kContent,
       static_cast<float>(post.num_hashtags));
  emit([] { return "content/log1p_text_length"; }, FC::kContent,
       Log1p(post.text_length));
  emit([] { return "content/has_question"; }, FC::kContent,
       static_cast<float>(post.has_question));
  emit([] { return "content/in_group"; }, FC::kContent,
       static_cast<float>(post.in_group));

  // --- Page features ---
  emit([] { return "page/log1p_followers"; }, FC::kPage, Log1p(page.followers));
  emit([] { return "page/log1p_fans"; }, FC::kPage, Log1p(page.fans));
  emit([] { return "page/fans_to_followers"; }, FC::kPage,
       static_cast<float>(page.followers > 0 ? page.fans / page.followers : 0.0));
  emit([] { return "page/log1p_posts_last_month"; }, FC::kPage,
       Log1p(page.posts_last_month));
  emit([] { return "page/age_days"; }, FC::kPage,
       static_cast<float>(page.page_age_days));
  emit([] { return "page/verified"; }, FC::kPage, static_cast<float>(page.verified));
  emit_group(&StaticFeatures::category,
             [](int c) {
               return std::string("page/category_") +
                      datagen::PageCategoryName(static_cast<datagen::PageCategory>(c));
             },
             FC::kPage, datagen::kNumPageCategories, static_cast<int>(page.category));

  // --- Cumulative engagement on the page's other posts ---
  emit([] { return "page_hist/log1p_mean_views"; }, FC::kEngagementPageViews,
       Log1p(page.hist_mean_views));
  emit([] { return "page_hist/log_halflife_h"; }, FC::kEngagementPageViews,
       static_cast<float>(std::log(std::max(page.hist_mean_halflife / kHour, 1e-3))));
  emit([] { return "page_hist/share_rate"; }, FC::kEngagementPageViews,
       static_cast<float>(page.hist_share_rate));
  emit([] { return "page_hist/comment_rate"; }, FC::kEngagementPageViews,
       static_cast<float>(page.hist_comment_rate));
  emit([] { return "page_hist/log1p_monthly_views"; }, FC::kEngagementPageViews,
       Log1p(page.hist_mean_views * page.posts_last_month));

  // --- Other features (after the temporal half in a schema row) ---
  emit([] { return "other/creation_tod"; }, FC::kOther,
       static_cast<float>(post.creation_tod));
  emit([] { return "other/day_of_week"; }, FC::kOther,
       static_cast<float>(post.day_of_week));
  emit([] { return "other/log1p_group_members"; }, FC::kOther,
       Log1p(post.group_members));
}

/// The temporal half: every feature read from the tracker snapshot, in
/// schema order.
template <typename Emit>
void EmitTemporal(const TrackerSnapshot& snap, const TrackerConfig& cfg,
                  Emit&& emit) {
  using FC = FeatureCategory;

  // --- Per-stream engagement features ---
  for (int t = 0; t < stream::kNumEngagementTypes; ++t) {
    const auto type = static_cast<EngagementType>(t);
    const StreamSnapshot& s = snap.streams[t];
    const FC cat = CategoryOf(type);

    emit([type] { return StreamName(type, "log1p_total"); }, cat,
         Log1pCount(s.total));
    for (size_t w = 0; w < cfg.window_lengths.size(); ++w) {
      const double length = cfg.window_lengths[w];
      emit([type, length] { return StreamName(type, "log1p_last_", length); }, cat,
           Log1pCount(s.window_counts[w]));
      emit([type, length] { return StreamName(type, "rate_per_h_last_", length); },
           cat, static_cast<float>(s.window_rates[w] * kHour));
    }
    for (size_t l = 0; l < cfg.landmark_ages.size(); ++l) {
      const double age = cfg.landmark_ages[l];
      emit([type, age] { return StreamName(type, "log1p_first_", age); }, cat,
           Log1pCount(s.landmark_counts[l]));
    }
    emit([type] { return StreamName(type, "log1p_ewma_per_h"); }, cat,
         Log1p(s.ewma_rate * kHour));
    emit([type] { return StreamName(type, "mean_event_age_h"); }, cat,
         static_cast<float>(s.mean_event_age / kHour));
    emit([type] { return StreamName(type, "first_event_age_h"); }, cat,
         static_cast<float>(s.first_event_age / kHour));
    emit([type] { return StreamName(type, "last_event_age_h"); }, cat,
         static_cast<float>(s.last_event_age / kHour));
    emit([type] { return StreamName(type, "recency_h"); }, cat,
         static_cast<float>(s.last_event_age >= 0.0
                                ? (snap.age - s.last_event_age) / kHour
                                : -1.0));
  }

  // --- Combination (ratio) features ---
  const double views = static_cast<double>(snap.views().total);
  auto ratio = [&](double num) {
    return static_cast<float>(views > 0 ? num / views : 0.0);
  };
  emit([] { return "combo/shares_per_view"; }, FC::kEngagementCombos,
       ratio(static_cast<double>(snap.shares().total)));
  emit([] { return "combo/comments_per_view"; }, FC::kEngagementCombos,
       ratio(static_cast<double>(snap.comments().total)));
  emit([] { return "combo/reactions_per_view"; }, FC::kEngagementCombos,
       ratio(static_cast<double>(snap.reactions().total)));
  const size_t num_windows = cfg.window_lengths.size();
  emit([] { return "combo/views_recent_frac"; }, FC::kEngagementCombos,
       ratio(static_cast<double>(
           num_windows == 0 ? 0 : snap.views().window_counts[num_windows - 1])));
  {
    const auto& rates = snap.views().window_rates;
    const double short_rate = num_windows == 0 ? 0.0 : rates[0];
    const double long_rate = num_windows == 0 ? 0.0 : rates[num_windows - 1];
    emit([] { return "combo/velocity_short_to_long"; }, FC::kEngagementCombos,
         static_cast<float>(long_rate > 0 ? short_rate / long_rate : 0.0));
  }

  // --- Other features ---
  emit([] { return "other/age_h"; }, FC::kOther, static_cast<float>(snap.age / kHour));
  emit([] { return "other/log1p_age_h"; }, FC::kOther, Log1p(snap.age / kHour));
}

}  // namespace

float Log1pCount(uint64_t n) {
  return n < kLog1pTableCounts ? Log1pTable()[n] : Log1p(static_cast<double>(n));
}

FeatureExtractor::FeatureExtractor(const stream::TrackerConfig& tracker_config)
    : tracker_layout_(std::make_shared<const stream::TrackerLayout>(tracker_config)),
      extract_latency_(obs::MetricsRegistry::Global().GetHistogram(
          "horizon_features_extract_latency_seconds")),
      rows_extracted_(obs::MetricsRegistry::Global().GetCounter(
          "horizon_features_rows_extracted_total")) {
  // Walk the schema over dummy inputs; only the names and categories count.
  std::vector<FeatureDef> statics;
  std::vector<std::pair<const uint8_t*, size_t>> groups;  // field, first index
  const StaticFeatures record;
  EmitStatic(
      datagen::PageProfile{}, datagen::PostProfile{},
      [&](const auto& name, FeatureCategory cat, float) {
        statics.push_back({std::string(name()), cat});
      },
      [&](uint8_t StaticFeatures::*field, const auto& name_of, FeatureCategory cat,
          int size, int /*index*/) {
        groups.emplace_back(&(record.*field), statics.size());
        for (int i = 0; i < size; ++i) statics.push_back({name_of(i), cat});
      });
  HORIZON_CHECK_EQ(statics.size(), kNumStaticFeatures);
  // A record's rows (VisitStatic) put its groups where the walk named them.
  size_t k = 0, g = 0;
  VisitStatic(
      record, [&](float) { ++k; },
      [&](const uint8_t& hot, size_t size) {
        HORIZON_CHECK(g < groups.size() && groups[g].first == &hot &&
                      groups[g].second == k);
        ++g;
        k += size;
      });
  HORIZON_CHECK(k == kNumStaticFeatures && g == groups.size());
  for (size_t i = 0; i < kStaticHead; ++i) {
    schema_.Add(statics[i].name, statics[i].category);
  }
  EmitTemporal(TrackerSnapshot{}, tracker_layout_->config,
               [this](const auto& name, FeatureCategory cat, float) {
                 schema_.Add(std::string(name()), cat);
               });
  for (size_t i = kStaticHead; i < kNumStaticFeatures; ++i) {
    schema_.Add(statics[i].name, statics[i].category);
  }
}

StaticFeatures FeatureExtractor::ExtractStatic(const datagen::PageProfile& page,
                                               const datagen::PostProfile& post) {
  StaticFeatures statics;
  size_t k = 0;
  EmitStatic(
      page, post,
      [&](const auto& /*name*/, FeatureCategory /*cat*/, float value) {
        statics.floats[k++] = value;
      },
      [&](uint8_t StaticFeatures::*field, const auto& /*name_of*/,
          FeatureCategory /*cat*/, int size, int index) {
        statics.*field = index >= 0 && index < size ? static_cast<uint8_t>(index)
                                                    : StaticFeatures::kNoneHot;
      });
  return statics;
}

std::vector<float> FeatureExtractor::Extract(const datagen::PageProfile& page,
                                             const datagen::PostProfile& post,
                                             const stream::TrackerSnapshot& snapshot)
    const {
  std::vector<float> out(schema_.size());
  ExtractIntoStrided(page, post, snapshot, out.data(), 1);
  return out;
}

void FeatureExtractor::ExtractIntoStrided(const datagen::PageProfile& page,
                                          const datagen::PostProfile& post,
                                          const stream::TrackerSnapshot& snapshot,
                                          float* out, size_t stride) const {
  ExtractIntoStrided(ExtractStatic(page, post), snapshot, out, stride);
}

void FeatureExtractor::ExtractIntoStrided(const StaticFeatures& statics,
                                          const stream::TrackerSnapshot& snapshot,
                                          float* out, size_t stride) const {
  // Extraction runs in tight per-row loops.  On a 4-vCPU Xeon a row takes
  // ~0.12 us from a static-feature record in a warm loop, and ~0.44 us as
  // features.extract_us of `bench_e2e --trace 1` (a profile-taking replay
  // over a 10^5-item corpus; query_zipf, Release).  So the trace hook is a
  // sampled latency probe plus a wait-free row counter.
  const obs::ScopedTimer timer(obs::SampleEvery(64, extract_latency_));
  rows_extracted_->Increment();
  const auto put = [&](size_t i, float value) {
    HORIZON_DCHECK(std::isfinite(value));
    out[i * stride] = value;
  };
  // The static features lead the row up to kStaticHead and end it.
  const size_t tail_shift = schema_.size() - kNumStaticFeatures;
  size_t k = 0;
  ForEachStaticValue(statics, [&](float value) {
    put(k < kStaticHead ? k : k + tail_shift, value);
    ++k;
  });
  size_t i = kStaticHead;
  EmitTemporal(snapshot, tracker_config(),
               [&](const auto& /*name*/, FeatureCategory /*cat*/, float value) {
                 put(i++, value);
               });
  HORIZON_CHECK_EQ(i, kStaticHead + tail_shift);
}

stream::TrackerSnapshot FeatureExtractor::ReplaySnapshot(
    const datagen::Cascade& cascade, double observe_age) const {
  stream::CascadeTracker tracker(0.0, tracker_layout_);
  for (const auto& e : cascade.views) {
    if (e.time >= observe_age) break;
    tracker.Observe(EngagementType::kView, e.time);
  }
  for (double t : cascade.share_times) {
    if (t >= observe_age) break;
    tracker.Observe(EngagementType::kShare, t);
  }
  for (double t : cascade.comment_times) {
    if (t >= observe_age) break;
    tracker.Observe(EngagementType::kComment, t);
  }
  for (double t : cascade.reaction_times) {
    if (t >= observe_age) break;
    tracker.Observe(EngagementType::kReaction, t);
  }
  return tracker.Snapshot(observe_age);
}

}  // namespace horizon::features
