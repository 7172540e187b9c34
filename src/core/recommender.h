#ifndef GOALREC_CORE_RECOMMENDER_H_
#define GOALREC_CORE_RECOMMENDER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "model/types.h"

namespace goalrec::util {
class StopToken;
}  // namespace goalrec::util

// Common recommender abstraction. A recommender observes a user activity H
// (the sorted set of actions already performed) and produces a ranked list of
// up to k actions the user has not performed. Both the paper's goal-based
// strategies (core/) and the state-of-the-art baselines (baselines/)
// implement this interface so the evaluation harness can treat them
// uniformly.

namespace goalrec::core {

/// One ranked recommendation. `score` is strategy-specific (higher is better
/// after normalisation inside each strategy); it is reported for
/// explainability and tie-break auditing, and is not comparable across
/// strategies.
struct ScoredAction {
  model::ActionId action = model::kInvalidId;
  double score = 0.0;

  friend bool operator==(const ScoredAction&, const ScoredAction&) = default;
};

/// Ranked best-first list of recommended actions.
using RecommendationList = std::vector<ScoredAction>;

/// Extracts just the action ids of a list, preserving order.
std::vector<model::ActionId> ActionsOf(const RecommendationList& list);

/// A ranked implementation considered by Focus, exposed for explainability
/// (e.g. "we recommend pickles because the olivier-salad recipe is 2/3
/// done"). Lives here (not focus.h) so the pooled QueryWorkspace can carry a
/// reusable ranking buffer without depending on a concrete strategy.
struct RankedImplementation {
  model::ImplId impl = model::kInvalidId;
  double score = 0.0;
};

class QueryWorkspace;

/// Interface implemented by every recommendation strategy.
class Recommender {
 public:
  virtual ~Recommender() = default;

  /// Short stable identifier used in reports ("Focus_cmp", "Breadth", ...).
  virtual std::string name() const = 0;

  /// Returns up to `k` actions not contained in `activity`, best first.
  /// Must be deterministic: equal inputs give equal outputs, with ties broken
  /// by ascending action id. Thread-safe for concurrent calls.
  virtual RecommendationList Recommend(const model::Activity& activity,
                                       size_t k) const = 0;

  /// The query kernel, which serving, evaluation and the sharded fan-out
  /// call. `activity` is H in canonical Activity form (the goal strategies
  /// normalise it themselves and ignore ids their library does not know).
  /// Results land in `out` (cleared first), so a caller that reuses both
  /// `workspace` and `out` runs the whole query without touching the
  /// allocator once buffers have warmed up. A null `workspace` means a
  /// fresh local QueryWorkspace.
  /// `stop` may be null (no limit). Strategies that honour it poll
  /// stop->ShouldStop() inside their scoring loops and bail out early; a
  /// list returned while stop->StopRequested() is a best-effort partial
  /// answer the caller must treat as unusable for exact ranking. The
  /// default ignores both `stop` and `workspace` and answers with Recommend
  /// (one activity copy plus the strategy's own allocations).
  virtual void RecommendPooled(util::IdSpan activity, size_t k,
                               const util::StopToken* stop,
                               QueryWorkspace* workspace,
                               RecommendationList& out) const;
};

/// Comparator used by every strategy that ranks by descending score:
/// higher score first, ascending action id on ties (determinism).
struct ByScoreDesc {
  bool operator()(const ScoredAction& a, const ScoredAction& b) const {
    if (a.score != b.score) return a.score > b.score;
    return a.action < b.action;
  }
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_RECOMMENDER_H_
