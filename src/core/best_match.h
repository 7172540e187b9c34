#ifndef GOALREC_CORE_BEST_MATCH_H_
#define GOALREC_CORE_BEST_MATCH_H_

#include <vector>

#include "core/recommender.h"
#include "core/shard_types.h"
#include "core/strategy.h"
#include "model/library.h"
#include "util/dense_vector.h"

// The Best Match strategy (paper §5.3, Algorithms 3–4): build a goal-based
// user profile — a vector over the user's goal space GS(H) recording how many
// (action, implementation) contributions the activity makes to each goal
// (Eq. 9) — represent every candidate action in the same space (Eq. 8, or the
// boolean variant of Eq. 7), and rank candidates by ascending distance to the
// profile (Eq. 10). It is the policy for users who want actions that mirror
// the effort distribution of their past across *all* goals in their space.

namespace goalrec::core {

/// How an action is embedded in the goal space F_GS(H).
enum class GoalVectorRepresentation {
  /// Eq. 7: a⃗[i] = 1 iff a contributes to goal g_i through ≥1 implementation.
  kBoolean,
  /// Eq. 8 (paper default): a⃗[i] = number of implementations of g_i that
  /// contain a.
  kImplementationCount,
};

struct BestMatchOptions {
  GoalVectorRepresentation representation =
      GoalVectorRepresentation::kImplementationCount;
  util::DistanceMetric metric = util::DistanceMetric::kEuclidean;
};

class BestMatchRecommender : public Recommender {
 public:
  /// The library must outlive the recommender.
  explicit BestMatchRecommender(const model::ImplementationLibrary* library,
                                BestMatchOptions options = {});

  std::string name() const override {
    return std::string(StrategyName(Strategy::kBestMatch));
  }

  /// Ranked ascending by distance to the profile. ScoredAction::score is the
  /// *negated* distance so that, as everywhere else, higher score = better.
  RecommendationList Recommend(const model::Activity& activity,
                               size_t k) const override;

  /// The kernel: spaces, profile and per-action partials all live on
  /// `workspace`'s reusable buffers. The scoring scan (the strategy's
  /// dominant cost, §5.4) polls `stop` once per goal of GS(H). Every
  /// distance is complete only when the scan ends, so a query stopped
  /// mid-scan returns an empty list rather than half-summed distances.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, QueryWorkspace* workspace,
                       RecommendationList& out) const override;

  /// Algorithm 3 (Get-Goal-Based-Profile): the aggregated user vector H⃗ over
  /// `goal_space` (which must be GoalSpace(activity), sorted).
  util::DenseVector Profile(const model::Activity& activity,
                            const model::IdSet& goal_space) const;

  /// Eq. 7/Eq. 8 embedding of one action over `goal_space` (sorted).
  util::DenseVector ActionVector(model::ActionId action,
                                 const model::IdSet& goal_space) const;

  /// Sharded fan-out, shard side (shard_merge.h): derives this shard's
  /// GS(H) slice from the postings scatter, then runs the goal-major scan
  /// over the slice, which collects the shard's candidates on the way and
  /// records the profile slice and the partials of every action outside H
  /// that the slice's implementations touch. Goal-colocated partitioning
  /// makes the slices disjoint, so the root rebuilds every global quantity
  /// by exact-integer sums. A scan stopped by `stop` leaves `out`
  /// half-summed. `activity` must be normalised.
  void ScanShard(util::IdSpan activity, const util::StopToken* stop,
                 QueryWorkspace& ws, BestMatchShardProfile& out) const;

  /// Ranks `candidates` by the distance read off `ws.profile` (aligned with
  /// the sorted `goal_space`) and the live partials in `ws.partials`, and
  /// emits the top `k` into `out`. Candidates outside the exactness
  /// certificate are re-embedded densely over this recommender's library.
  /// The unsharded kernel's read-off, and the sharded root's over the base
  /// library once MergeBestMatchShards has filled `ws`.
  void RankCandidates(std::span<const model::GoalId> goal_space,
                      util::IdSpan candidates, size_t k, QueryWorkspace& ws,
                      RecommendationList& out) const;

 private:
  /// ActionVector into a reused buffer (assign, no reallocation once warm).
  void ActionVectorInto(model::ActionId action,
                        std::span<const model::GoalId> goal_space,
                        util::DenseVector& out) const;
  /// Sorted GS(H) into ws.goal_space, from one scatter over H's postings
  /// that leaves IS(H) counted and H marked in `ws` for the scan.
  void DeriveSpaces(util::IdSpan activity, QueryWorkspace& ws) const;
  /// Ranks over ws.activity and ws.goal_space. With `collect`, ws holds
  /// DeriveSpaces' scatter and the scan gathers the candidates from it;
  /// without, ws.candidates already holds AS(H) − H.
  void RecommendOver(bool collect, size_t k, const util::StopToken* stop,
                     QueryWorkspace& ws, RecommendationList& out) const;

  const model::ImplementationLibrary* library_;
  BestMatchOptions options_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_BEST_MATCH_H_
