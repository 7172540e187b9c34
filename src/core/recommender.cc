#include "core/recommender.h"

namespace goalrec::core {

void Recommender::RecommendPooled(util::IdSpan activity, size_t k,
                                  const util::StopToken* /*stop*/,
                                  QueryWorkspace* /*workspace*/,
                                  RecommendationList& out) const {
  out = Recommend(model::Activity(activity.begin(), activity.end()), k);
}

std::vector<model::ActionId> ActionsOf(const RecommendationList& list) {
  std::vector<model::ActionId> actions;
  actions.reserve(list.size());
  for (const ScoredAction& entry : list) actions.push_back(entry.action);
  return actions;
}

}  // namespace goalrec::core
