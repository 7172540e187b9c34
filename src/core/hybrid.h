#ifndef GOALREC_CORE_HYBRID_H_
#define GOALREC_CORE_HYBRID_H_

#include <string>

#include "core/recommender.h"
#include "model/features.h"
#include "util/dense_vector.h"

// Hybrid goal-based + content-based recommendation — the extension the
// paper's conclusion names as future work ("methodologies that enhance the
// goal-based mechanisms by considering the user preferences on certain
// domain-specific characteristics"). The hybrid re-ranks a goal-based
// strategy's candidates by blending their (min-max normalised) goal scores
// with their content similarity to the user's feature profile:
//
//   sc(a) = (1 − α) · goal_scorẽ(a) + α · content_sim(profile(H), a)
//
// α = 0 degenerates to the wrapped strategy; α = 1 ranks the strategy's
// candidate pool purely by content.

namespace goalrec::core {

/// Candidate pool size requested from the goal strategy before
/// re-ranking, as a multiple of the caller's k.
inline constexpr double kHybridPoolFactor = 3.0;

struct HybridOptions {
  /// Blend factor α ∈ [0, 1]: weight of the content component.
  double alpha = 0.3;
};

class HybridRecommender : public Recommender {
 public:
  /// `goal_strategy` and `features` must outlive the recommender. Actions
  /// without features fall back to content similarity 0 (goal score only).
  HybridRecommender(const Recommender* goal_strategy,
                    const model::ActionFeatureTable* features,
                    HybridOptions options = {});

  std::string name() const override;
  RecommendationList Recommend(const model::Activity& activity,
                               size_t k) const override;

  /// Cosine similarity between the feature profile of `activity` and the
  /// features of `action`; exposed for tests.
  double ContentSimilarity(const model::Activity& activity,
                           model::ActionId action) const;

 private:
  /// Feature-count profile of `activity` and its L2 norm — built once per
  /// Recommend and shared across the candidate loop.
  void BuildProfile(const model::Activity& activity,
                    util::DenseVector& profile, double& norm) const;
  double SimilarityToProfile(const util::DenseVector& profile, double norm,
                             model::ActionId action) const;

  const Recommender* goal_strategy_;
  const model::ActionFeatureTable* features_;
  HybridOptions options_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_HYBRID_H_
