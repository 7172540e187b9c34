#include "core/hybrid.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/dense_vector.h"
#include "util/logging.h"
#include "util/top_k.h"

namespace goalrec::core {

HybridRecommender::HybridRecommender(
    const Recommender* goal_strategy,
    const model::ActionFeatureTable* features, HybridOptions options)
    : goal_strategy_(goal_strategy), features_(features), options_(options) {
  GOALREC_CHECK(goal_strategy_ != nullptr);
  GOALREC_CHECK(features_ != nullptr);
  GOALREC_CHECK_GE(options_.alpha, 0.0);
  GOALREC_CHECK_LE(options_.alpha, 1.0);
}

std::string HybridRecommender::name() const {
  return "Hybrid(" + goal_strategy_->name() + ")";
}

void HybridRecommender::BuildProfile(const model::Activity& activity,
                                     util::DenseVector& profile,
                                     double& norm) const {
  // Profile: feature counts over the activity.
  profile.assign(features_->num_features, 0.0);
  for (model::ActionId a : activity) {
    if (a >= features_->features.size()) continue;
    for (uint32_t f : features_->features[a]) profile[f] += 1.0;
  }
  norm = util::Norm2(profile);
}

double HybridRecommender::SimilarityToProfile(const util::DenseVector& profile,
                                              double norm,
                                              model::ActionId action) const {
  if (action >= features_->features.size()) return 0.0;
  const model::IdSet& action_features = features_->features[action];
  if (action_features.empty()) return 0.0;
  if (norm == 0.0) return 0.0;
  double dot = 0.0;
  for (uint32_t f : action_features) dot += profile[f];
  return dot / (norm * std::sqrt(static_cast<double>(
                           action_features.size())));
}

double HybridRecommender::ContentSimilarity(const model::Activity& activity,
                                            model::ActionId action) const {
  util::DenseVector profile;
  double norm = 0.0;
  BuildProfile(activity, profile, norm);
  return SimilarityToProfile(profile, norm, action);
}

RecommendationList HybridRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  RecommendationList list;
  if (k == 0) return list;
  // kHybridPoolFactor · k exceeds SIZE_MAX for k near it, and converting
  // such a double to size_t is undefined: saturate instead.
  double pool_wanted = std::ceil(kHybridPoolFactor * static_cast<double>(k));
  size_t pool_size = pool_wanted < static_cast<double>(SIZE_MAX)
                         ? std::max(k, static_cast<size_t>(pool_wanted))
                         : SIZE_MAX;
  RecommendationList pool = goal_strategy_->Recommend(activity, pool_size);
  if (pool.empty()) return list;

  // Min-max normalise the goal scores so they blend with the [0, 1]
  // content similarities. Equal scores all map to 1.0 (the strategy ranked
  // them equally well).
  double min_score = pool.front().score;
  double max_score = pool.front().score;
  for (const ScoredAction& entry : pool) {
    min_score = std::min(min_score, entry.score);
    max_score = std::max(max_score, entry.score);
  }
  double range = max_score - min_score;

  // The feature profile depends only on the activity: build it once and
  // score every pooled candidate against it, instead of rebuilding the
  // O(|H| · F) vector per candidate (same doubles, so identical results).
  util::DenseVector profile;
  double norm = 0.0;
  BuildProfile(activity, profile, norm);

  util::TopK<ScoredAction, ByScoreDesc> top_k(k);
  for (const ScoredAction& entry : pool) {
    double goal_component =
        range > 0.0 ? (entry.score - min_score) / range : 1.0;
    double content_component =
        SimilarityToProfile(profile, norm, entry.action);
    double blended = (1.0 - options_.alpha) * goal_component +
                     options_.alpha * content_component;
    top_k.Push(ScoredAction{entry.action, blended});
  }
  return top_k.Take();
}

}  // namespace goalrec::core
