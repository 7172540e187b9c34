#ifndef GOALREC_CORE_BEST_MATCH_H_
#define GOALREC_CORE_BEST_MATCH_H_

#include <vector>

#include "core/goal_weights.h"
#include "core/query_context.h"
#include "core/recommender.h"
#include "core/shard_types.h"
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
  /// Optional goal priorities (must outlive the recommender): dimension i of
  /// every goal-space vector is scaled by the weight of goal_space[i],
  /// making mismatches on prioritised goals cost more.
  const GoalWeights* goal_weights = nullptr;
};

class BestMatchRecommender : public Recommender {
 public:
  /// The library must outlive the recommender.
  explicit BestMatchRecommender(const model::ImplementationLibrary* library,
                                BestMatchOptions options = {});

  std::string name() const override { return "BestMatch"; }

  /// Ranked ascending by distance to the profile. ScoredAction::score is the
  /// *negated* distance so that, as everywhere else, higher score = better.
  RecommendationList Recommend(const model::Activity& activity,
                               size_t k) const override;

  /// Deadline-aware Recommend: the scoring scan (the strategy's dominant
  /// cost, §5.4) polls `stop` once per goal of GS(H). Every distance is
  /// complete only when the scan ends, so a query stopped mid-scan returns
  /// an empty list rather than half-summed distances.
  RecommendationList RecommendCancellable(
      const model::Activity& activity, size_t k,
      const util::StopToken* stop) const override;

  /// Zero-allocation serving path: spaces, profile and per-action partials
  /// all live on `workspace`'s reusable buffers.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, QueryWorkspace* workspace,
                       RecommendationList& out) const override;

  /// Same result as Recommend, reusing the context's precomputed goal space
  /// and candidate set.
  RecommendationList RecommendInContext(const QueryContext& context,
                                        size_t k) const;

  /// Out-param RecommendInContext: results land in `out` (cleared first).
  void RecommendInContext(const QueryContext& context, size_t k,
                          RecommendationList& out) const;

  /// Algorithm 3 (Get-Goal-Based-Profile): the aggregated user vector H⃗ over
  /// `goal_space` (which must be GoalSpace(activity), sorted).
  util::DenseVector Profile(const model::Activity& activity,
                            const model::IdSet& goal_space) const;

  /// Eq. 7/Eq. 8 embedding of one action over `goal_space` (sorted).
  util::DenseVector ActionVector(model::ActionId action,
                                 const model::IdSet& goal_space) const;

  /// Sharded fan-out, shard side (shard_merge.h): derives this shard's
  /// GS(H) slice and candidate set from the postings scatter, then runs the
  /// goal-major scan over the slice, recording the profile slice and the
  /// partials of every action outside H that the slice's implementations
  /// touch. Goal-colocated partitioning makes the slices disjoint, so the
  /// root rebuilds every global quantity by exact-integer sums. A scan
  /// stopped by `stop` leaves `out` half-summed. `activity` must be
  /// normalised. Unweighted recommenders only.
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
  void ProfileInto(util::IdSpan activity,
                   std::span<const model::GoalId> goal_space,
                   util::DenseVector& out, util::DenseVector& scratch) const;
  /// Sorted GS(H) into ws.goal_space and AS(H) − H into `candidates`, from
  /// one scatter over H's postings.
  void DeriveSpaces(util::IdSpan activity, QueryWorkspace& ws,
                    model::IdSet& candidates) const;
  /// The goal-major scan: ws.profile over `goal_space` and the partials of
  /// every action outside H. Returns false when `stop` fired mid-scan.
  bool ScanGoals(util::IdSpan activity,
                 std::span<const model::GoalId> goal_space,
                 const util::StopToken* stop, QueryWorkspace& ws) const;
  void RecommendOver(util::IdSpan activity,
                     std::span<const model::GoalId> goal_space,
                     util::IdSpan candidates, size_t k,
                     const util::StopToken* stop, QueryWorkspace& workspace,
                     RecommendationList& out) const;

  const model::ImplementationLibrary* library_;
  BestMatchOptions options_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_BEST_MATCH_H_
