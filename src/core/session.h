#ifndef GOALREC_CORE_SESSION_H_
#define GOALREC_CORE_SESSION_H_

#include "core/recommender.h"
#include "model/library.h"

// Online recommendation session: the serving-side counterpart of the batch
// Recommender interface. A session tracks one user's growing activity (a
// shopper adding items to the cart, a learner completing courses) and asks
// its strategy for recommendations over it. It keeps no derived state: the
// spaces are computed from the library when asked for.

namespace goalrec::core {

class RecommendationSession {
 public:
  /// Both pointers must outlive the session. The strategy is consulted on
  /// every Recommend call with the session's current activity.
  RecommendationSession(const model::ImplementationLibrary* library,
                        const Recommender* strategy);

  /// Records that the user performed `action`. Unknown ids (beyond the
  /// library's vocabulary) are accepted — they simply join no
  /// implementation. Re-performing a known action is a no-op. Returns true
  /// if the activity changed.
  bool Perform(model::ActionId action);

  /// Forgets a performed action (an item removed from the cart). Returns
  /// true if it was present.
  bool Undo(model::ActionId action);

  /// The activity accumulated so far (sorted).
  const model::Activity& activity() const { return activity_; }

  /// IS(H) for the current activity.
  model::IdSet ImplementationSpace() const;

  /// GS(H) for the current activity.
  model::IdSet GoalSpace() const;

  /// Completeness of the single goal closest to fulfilment, with its id;
  /// returns {kInvalidId, 0.0} when the activity touches no implementation.
  struct ClosestGoal {
    model::GoalId goal = model::kInvalidId;
    double completeness = 0.0;
  };
  ClosestGoal FindClosestGoal() const;

  /// Delegates to the wrapped strategy with the current activity.
  RecommendationList Recommend(size_t k) const;

 private:
  const model::ImplementationLibrary* library_;
  const Recommender* strategy_;
  model::Activity activity_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_SESSION_H_
