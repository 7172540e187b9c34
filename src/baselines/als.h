#ifndef GOALREC_BASELINES_ALS_H_
#define GOALREC_BASELINES_ALS_H_

#include <vector>

#include "baselines/interaction_data.h"
#include "core/recommender.h"
#include "util/linalg.h"

// Matrix-factorisation collaborative filtering (the paper's "CF MF"
// baseline): alternating least squares with weighted-λ regularisation
// (ALS-WR, Zhou et al. 2008) adapted to implicit feedback in the style of
// Hu/Koren/Volinsky 2008, matching Mahout's implicit ALS solver the paper
// used. The binary user × action matrix is factorised into
// user-factor and action-factor matrices; a query activity (which may be an
// unseen cart) is folded in by solving its user vector against the learned
// action factors, then actions are ranked by predicted preference.

namespace goalrec::baselines {

/// Regularisation weight λ; each least-squares solve is regularised by
/// λ · (#observations of that row), the "weighted-λ" scheme of ALS-WR.
inline constexpr double kAlsLambda = 0.05;

struct AlsOptions {
  uint32_t num_factors = 16;
  uint32_t num_iterations = 10;
  /// Confidence weight: observed cells get confidence 1 + alpha.
  double alpha = 40.0;
  /// Seed for factor initialisation.
  uint64_t seed = 13;
};

class AlsRecommender : public core::Recommender {
 public:
  /// Trains immediately; `data` must outlive the recommender.
  AlsRecommender(const InteractionData* data, AlsOptions options = {});

  std::string name() const override { return "CF_MF"; }
  core::RecommendationList Recommend(const model::Activity& activity,
                                     size_t k) const override;

  /// Predicted preference of `action` for the folded-in `user_vector`.
  double Predict(const util::DenseVector& user_vector,
                 model::ActionId action) const;

  /// Solves the fold-in user vector for an arbitrary activity.
  util::DenseVector FoldInUser(const model::Activity& activity) const;

  /// Training reconstruction objective (confidence-weighted squared error +
  /// regularisation); decreases monotonically across iterations in tests.
  double Objective() const;

 private:
  void Train();
  // One half-step: recompute `target` factors from `fixed` factors given the
  // postings (rows of the matrix being solved).
  void SolveSide(const std::vector<std::vector<uint32_t>>& postings,
                 const std::vector<util::DenseVector>& fixed,
                 std::vector<util::DenseVector>& target);

  const InteractionData* data_;
  AlsOptions options_;
  std::vector<util::DenseVector> user_factors_;
  std::vector<util::DenseVector> action_factors_;
  /// Gram matrix of the trained action factors, which FoldInUser reads.
  util::DenseMatrix action_gram_;
};

}  // namespace goalrec::baselines

#endif  // GOALREC_BASELINES_ALS_H_
