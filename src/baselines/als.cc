#include "baselines/als.h"

#include <cmath>

#include "util/logging.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "util/thread_pool.h"
#include "util/top_k.h"

namespace goalrec::baselines {
namespace {

// Gram matrix Σ_j f_j f_jᵀ of a factor side.
util::DenseMatrix ComputeGram(const std::vector<util::DenseVector>& factors,
                              size_t dim) {
  util::DenseMatrix gram(dim, dim);
  for (const util::DenseVector& f : factors) gram.AddOuterProduct(f, 1.0);
  return gram;
}

// Solves one implicit-ALS row: x = (Gram + α Σ f_j f_jᵀ + λ n I)⁻¹ (1+α) Σ f_j
// where j ranges over the row's observed columns.
util::DenseVector SolveRow(const util::DenseMatrix& gram,
                           const std::vector<uint32_t>& observed,
                           const std::vector<util::DenseVector>& fixed,
                           const AlsOptions& options) {
  size_t dim = options.num_factors;
  if (observed.empty()) return util::DenseVector(dim, 0.0);
  util::DenseMatrix a = gram;
  util::DenseVector b(dim, 0.0);
  for (uint32_t j : observed) {
    const util::DenseVector& f = fixed[j];
    a.AddOuterProduct(f, options.alpha);
    for (size_t d = 0; d < dim; ++d) b[d] += (1.0 + options.alpha) * f[d];
  }
  // Weighted-λ regularisation (ALS-WR): scale λ by the row's observation
  // count. The ridge term keeps the system positive definite.
  a.AddToDiagonal(kAlsLambda * static_cast<double>(observed.size()) +
                  1e-9);
  util::StatusOr<util::DenseVector> solved = util::CholeskySolve(a, b);
  GOALREC_CHECK(solved.ok()) << solved.status().ToString();
  return std::move(solved).value();
}

}  // namespace

AlsRecommender::AlsRecommender(const InteractionData* data, AlsOptions options)
    : data_(data), options_(options) {
  GOALREC_CHECK(data_ != nullptr);
  GOALREC_CHECK_GT(options_.num_factors, 0u);
  Train();
}

void AlsRecommender::Train() {
  util::Rng rng(options_.seed);
  const size_t dim = options_.num_factors;
  user_factors_.assign(data_->num_users(), util::DenseVector(dim, 0.0));
  action_factors_.assign(data_->num_actions(), util::DenseVector(dim, 0.0));
  // Small positive random initialisation (Mahout convention).
  for (util::DenseVector& f : action_factors_) {
    for (double& v : f) v = 0.1 * rng.UniformDouble();
  }

  // Row postings for the user side (user -> actions) and column postings for
  // the action side (action -> users).
  std::vector<std::vector<uint32_t>> user_rows(data_->num_users());
  for (uint32_t u = 0; u < data_->num_users(); ++u) {
    const model::Activity& acts = data_->ActionsOfUser(u);
    user_rows[u].assign(acts.begin(), acts.end());
  }
  std::vector<std::vector<uint32_t>> action_rows(data_->num_actions());
  for (model::ActionId a = 0; a < data_->num_actions(); ++a) {
    action_rows[a] = data_->UsersOfAction(a);
  }

  for (uint32_t iter = 0; iter < options_.num_iterations; ++iter) {
    SolveSide(user_rows, action_factors_, user_factors_);
    SolveSide(action_rows, user_factors_, action_factors_);
  }
  // Every fold-in solves against the final action factors, so their Gram
  // matrix YᵀY is computed once here, as Hu, Koren & Volinsky (2008) do.
  action_gram_ = ComputeGram(action_factors_, dim);
}

void AlsRecommender::SolveSide(
    const std::vector<std::vector<uint32_t>>& postings,
    const std::vector<util::DenseVector>& fixed,
    std::vector<util::DenseVector>& target) {
  util::DenseMatrix gram = ComputeGram(fixed, options_.num_factors);
  util::ParallelFor(postings.size(), [&](size_t r) {
    target[r] = SolveRow(gram, postings[r], fixed, options_);
  });
}

double AlsRecommender::Predict(const util::DenseVector& user_vector,
                               model::ActionId action) const {
  GOALREC_CHECK_LT(action, action_factors_.size());
  return util::Dot(user_vector, action_factors_[action]);
}

util::DenseVector AlsRecommender::FoldInUser(
    const model::Activity& activity) const {
  std::vector<uint32_t> observed;
  observed.reserve(activity.size());
  for (model::ActionId a : activity) {
    if (a < data_->num_actions()) observed.push_back(a);
  }
  return SolveRow(action_gram_, observed, action_factors_, options_);
}

double AlsRecommender::Objective() const {
  // Confidence-weighted reconstruction error over the full matrix plus the
  // weighted-λ regularisation term. O(users × actions × factors): intended
  // for tests on small instances, not for production monitoring.
  double total = 0.0;
  for (uint32_t u = 0; u < data_->num_users(); ++u) {
    const model::Activity& acts = data_->ActionsOfUser(u);
    for (model::ActionId i = 0; i < data_->num_actions(); ++i) {
      bool observed = util::Contains(acts, i);
      double r = observed ? 1.0 : 0.0;
      double c = observed ? 1.0 + options_.alpha : 1.0;
      double err = r - util::Dot(user_factors_[u], action_factors_[i]);
      total += c * err * err;
    }
    total += kAlsLambda * static_cast<double>(acts.size()) *
             util::Dot(user_factors_[u], user_factors_[u]);
  }
  for (model::ActionId i = 0; i < data_->num_actions(); ++i) {
    total += kAlsLambda *
             static_cast<double>(data_->UsersOfAction(i).size()) *
             util::Dot(action_factors_[i], action_factors_[i]);
  }
  return total;
}

core::RecommendationList AlsRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  core::RecommendationList list;
  if (k == 0 || activity.empty()) return list;
  util::DenseVector user_vector = FoldInUser(activity);
  util::TopK<core::ScoredAction, core::ByScoreDesc> top_k(k);
  for (model::ActionId a = 0; a < data_->num_actions(); ++a) {
    if (util::Contains(activity, a)) continue;
    top_k.Push(core::ScoredAction{a, Predict(user_vector, a)});
  }
  return top_k.Take();
}

}  // namespace goalrec::baselines
