#ifndef GOALREC_CORE_FOCUS_H_
#define GOALREC_CORE_FOCUS_H_

#include <vector>

#include "core/recommender.h"
#include "core/shard_types.h"
#include "model/library.h"

// The Focus strategy (paper §5.1, Algorithm 1): rank the goal
// implementations associated with the user activity and recommend the
// missing actions of the best implementations, one implementation at a time.
// It is the policy for users who want to *complete at least one goal* through
// the current recommendation list.
//
// Two variants rank the implementations:
//   completeness(g, A, H) = |A ∩ H| / |A|    (Focus_cmp, Eq. 3)
//   closeness(g, A, H)    = 1 / |A − H|      (Focus_cl,  Eq. 4)

namespace goalrec::core {

enum class FocusVariant {
  kCompleteness,  // Focus_cmp
  kCloseness,     // Focus_cl
};

/// Completeness of implementation activity `impl_actions` w.r.t. history
/// `activity` (Eq. 3). Zero for an empty implementation.
double Completeness(util::IdSpan impl_actions, util::IdSpan activity);

/// Closeness (Eq. 4). An already-complete implementation (|A − H| = 0) has
/// unbounded closeness; it contributes no candidate actions, so this returns
/// 0 and Focus skips it.
double Closeness(util::IdSpan impl_actions, util::IdSpan activity);

class FocusRecommender : public Recommender {
 public:
  /// The library must outlive the recommender.
  FocusRecommender(const model::ImplementationLibrary* library,
                   FocusVariant variant);

  std::string name() const override;
  RecommendationList Recommend(const model::Activity& activity,
                               size_t k) const override;

  /// The kernel: one postings scatter ranks IS(H) and the emission loop
  /// runs on the workspace's reusable buffers. The ranking loop polls
  /// `stop`; the result is a best-effort partial once it fires.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, QueryWorkspace* workspace,
                       RecommendationList& out) const override;

  /// The implementation ranking that drives Recommend: every implementation
  /// of IS(H) with at least one missing action, best first (score
  /// descending, impl id ascending on ties).
  std::vector<RankedImplementation> RankImplementations(
      const model::Activity& activity) const;

  /// Sharded fan-out entry point (shard_merge.h): runs the ranking kernel
  /// over this shard's library and emits the first `k` locally-distinct
  /// candidate actions as (action, score, logical implementation) records,
  /// in the shard's emission order — (score desc, logical impl asc),
  /// actions of one implementation adjacent in ascending id order.
  /// Truncating at k distinct actions per shard is lossless: every record
  /// the root merge accepts is preceded in its own shard's stream only by
  /// records the root processed first, so its local distinct-action rank is
  /// ≤ k. `local_to_logical` maps this shard's implementation ids to
  /// logical (base) ids; `activity` must be normalised.
  void EmitShardForMerge(util::IdSpan activity, size_t k,
                         util::IdSpan local_to_logical,
                         const util::StopToken* stop, QueryWorkspace& ws,
                         std::vector<ShardEmission>& out) const;

 private:
  /// The ranking kernel: scatter-counts |A_p ∩ H| over the ImplsOfAction
  /// postings of H (epoch-stamped counters in `ws`), scores every touched
  /// implementation in first-touch order, and leaves H marked in ws's H
  /// marker for EmitFromRanking. `activity` must be normalised.
  void RankUnsortedInto(util::IdSpan activity, const util::StopToken* stop,
                        QueryWorkspace& ws,
                        std::vector<RankedImplementation>& out) const;
  /// RankUnsortedInto followed by the (score desc, impl asc) sort — the
  /// public RankImplementations contract.
  void RankInto(util::IdSpan activity, const util::StopToken* stop,
                QueryWorkspace& ws,
                std::vector<RankedImplementation>& out) const;
  /// Missing-action emission over an (unsorted) ranking produced by
  /// RankUnsortedInto on the same workspace (it reads the H marker the
  /// kernel set). Selects implementations best-first by lazy heap pops, so
  /// `ranking` is scratch: left partially reordered.
  void EmitFromRanking(std::vector<RankedImplementation>& ranking, size_t k,
                       QueryWorkspace& workspace,
                       RecommendationList& out) const;

  const model::ImplementationLibrary* library_;
  FocusVariant variant_;
  /// "strategy/<name>", built once: the per-query trace span label must not
  /// cost an allocation on the pooled path.
  std::string trace_label_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_FOCUS_H_
