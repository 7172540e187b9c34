#include "baselines/knn.h"

#include <vector>

#include "core/query_workspace.h"
#include "util/dense_vector.h"
#include "util/logging.h"
#include "util/set_ops.h"
#include "util/top_k.h"

namespace goalrec::baselines {
namespace {

struct ScoredUser {
  uint32_t user = 0;
  double similarity = 0.0;
};

struct ByUserSimilarityDesc {
  bool operator()(const ScoredUser& a, const ScoredUser& b) const {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.user < b.user;
  }
};

}  // namespace

KnnRecommender::KnnRecommender(const InteractionData* data, KnnOptions options)
    : data_(data), options_(options) {
  GOALREC_CHECK(data_ != nullptr);
  GOALREC_CHECK_GT(options_.num_neighbors, 0u);
}

double KnnRecommender::UserSimilarity(const model::Activity& activity,
                                      uint32_t u) const {
  const model::Activity& other = data_->ActionsOfUser(u);
  size_t common = util::IntersectionSize(activity, other);
  return util::JaccardFromCounts(common, activity.size(), other.size());
}

core::RecommendationList KnnRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  core::QueryWorkspace ws;
  core::RecommendationList list;
  RecommendPooled(activity, k, nullptr, &ws, list);
  return list;
}

// Pass 1 scatters H's UsersOfAction postings into the workspace's
// per-implementation counters, used as per-user counters (|H ∩ U_u|). Pass 2
// credits the neighbours' similarities, best neighbour first, to their
// actions outside H. Both selections are total orders, so first-touch order
// never shows in the answer.
void KnnRecommender::RecommendPooled(util::IdSpan activity, size_t k,
                                     const util::StopToken* /*stop*/,
                                     core::QueryWorkspace* workspace,
                                     core::RecommendationList& out) const {
  if (workspace == nullptr) {
    out = Recommend(model::Activity(activity.begin(), activity.end()), k);
    return;
  }
  out.clear();
  if (k == 0 || activity.empty()) return;
  core::QueryWorkspace& ws = *workspace;
  const uint32_t num_actions = data_->num_actions();

  ws.BeginHMark(num_actions);
  ws.BeginImplPass(data_->num_users());
  for (model::ActionId a : activity) {
    if (a >= num_actions) continue;  // unseen by the training data
    ws.MarkH(a);
    for (uint32_t u : data_->UsersOfAction(a)) ws.BumpImplCount(u);
  }

  util::TopK<ScoredUser, ByUserSimilarityDesc> neighbor_heap(
      options_.num_neighbors);
  for (uint32_t user : ws.touched_impls()) {
    double sim = util::JaccardFromCounts(ws.ImplCountOf(user),
                                         activity.size(),
                                         data_->ActionsOfUser(user).size());
    if (sim < options_.min_similarity) continue;
    neighbor_heap.Push(ScoredUser{user, sim});
  }

  ws.BeginActionPass(num_actions);
  for (const ScoredUser& neighbor : neighbor_heap.Take()) {
    for (model::ActionId a : data_->ActionsOfUser(neighbor.user)) {
      if (ws.InH(a)) continue;
      ws.AddScore(a, neighbor.similarity);
    }
  }

  ws.top_k.Reset(k);
  for (model::ActionId a : ws.touched()) ws.top_k.Push(ws.ScoreOf(a), a);
  ws.top_k.TakeInto([&out](double score, uint32_t action) {
    out.push_back(core::ScoredAction{action, score});
  });
}

}  // namespace goalrec::baselines
