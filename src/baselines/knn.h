#ifndef GOALREC_BASELINES_KNN_H_
#define GOALREC_BASELINES_KNN_H_

#include <memory>

#include "baselines/interaction_data.h"
#include "core/recommender.h"

// Nearest-neighbour collaborative filtering (the paper's "CF KNN" baseline):
// user-based kNN over implicit feedback with the Tanimoto (Jaccard)
// coefficient for neighbourhood formation, as in §6 "Comparison with the
// State-of-the-art". For a query activity H the recommender finds the k
// most similar training users and scores each unseen action by the summed
// similarity of the neighbours who performed it.

namespace goalrec::baselines {

struct KnnOptions {
  /// Neighbourhood size (number of most similar users considered).
  uint32_t num_neighbors = 50;
  /// Neighbours with similarity below this are ignored.
  double min_similarity = 1e-9;
};

class KnnRecommender : public core::Recommender {
 public:
  /// `data` must outlive the recommender.
  KnnRecommender(const InteractionData* data, KnnOptions options = {});

  std::string name() const override { return "CF_kNN"; }
  core::RecommendationList Recommend(const model::Activity& activity,
                                     size_t k) const override;

  /// The one kernel (Recommend runs it on a local workspace). `workspace`
  /// may be shared with other strategies between calls. Ignores `stop`.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop,
                       core::QueryWorkspace* workspace,
                       core::RecommendationList& out) const override;

  /// Tanimoto similarity of the query activity to training user `u`;
  /// exposed for tests.
  double UserSimilarity(const model::Activity& activity, uint32_t u) const;

 private:
  const InteractionData* data_;
  KnnOptions options_;
};

}  // namespace goalrec::baselines

#endif  // GOALREC_BASELINES_KNN_H_
