#include "core/session.h"

#include <algorithm>

#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::core {

RecommendationSession::RecommendationSession(
    const model::ImplementationLibrary* library, const Recommender* strategy)
    : library_(library), strategy_(strategy) {
  GOALREC_CHECK(library_ != nullptr);
  GOALREC_CHECK(strategy_ != nullptr);
}

bool RecommendationSession::Perform(model::ActionId action) {
  if (util::Contains(activity_, action)) return false;
  activity_.push_back(action);
  std::sort(activity_.begin(), activity_.end());
  return true;
}

bool RecommendationSession::Undo(model::ActionId action) {
  auto it = std::lower_bound(activity_.begin(), activity_.end(), action);
  if (it == activity_.end() || *it != action) return false;
  activity_.erase(it);
  return true;
}

model::IdSet RecommendationSession::ImplementationSpace() const {
  return library_->ImplementationSpace(activity_);
}

model::IdSet RecommendationSession::GoalSpace() const {
  return library_->GoalSpace(activity_);
}

RecommendationSession::ClosestGoal RecommendationSession::FindClosestGoal()
    const {
  ClosestGoal best;
  for (model::ImplId p : ImplementationSpace()) {
    std::span<const model::ActionId> actions = library_->ActionsOf(p);
    if (actions.empty()) continue;
    double completeness =
        static_cast<double>(util::IntersectionSize(actions, activity_)) /
        static_cast<double>(actions.size());
    model::GoalId goal = library_->GoalOf(p);
    if (completeness > best.completeness ||
        (completeness == best.completeness && goal < best.goal)) {
      best.goal = goal;
      best.completeness = completeness;
    }
  }
  return best;
}

RecommendationList RecommendationSession::Recommend(size_t k) const {
  return strategy_->Recommend(activity_, k);
}

}  // namespace goalrec::core
