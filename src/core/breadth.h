#ifndef GOALREC_CORE_BREADTH_H_
#define GOALREC_CORE_BREADTH_H_

#include <vector>

#include "core/recommender.h"
#include "core/shard_types.h"
#include "core/strategy.h"
#include "model/library.h"

// The Breadth strategy (paper §5.2, Algorithm 2): evaluate every candidate
// action against *all* the implementations of the user's implementation
// space it participates in,
//
//   sc(a, H, Breadth) = Σ_{(g,A) : A∩H ≠ ∅, a ∈ A} |A ∩ H|        (Eq. 6)
//
// so actions that co-occur with many already-performed actions across many
// goals score highest. It is the policy for users who want to advance as many
// goals as possible, accepting that some will only be completed later.
//
// Algorithm 2's single pass: instead of scoring each candidate independently
// (O(|AS(H)| × connectivity)), iterate once over IS(H) and add each
// implementation's |A ∩ H| to all of its member actions. The accumulator is
// the workspace's epoch-stamped dense score array — O(1) reset, no hashing,
// no per-query map allocation. Tests assert this accumulation equals the
// brute-force Eq. 6 evaluation.

namespace goalrec::core {

/// Breadth switches from the epoch-stamped sparse score accumulator to a
/// dense assign-reset array when the scatter's total credit mass
/// (Σ |A_p| over IS(H)) exceeds `multiplier × num_actions` — above that
/// point an O(num_actions) reset plus unconditional adds beats per-credit
/// epoch branches. Both accumulators sum the same exact integers, so the
/// result is bit-identical either way (the oracle wall pins this). This
/// knob exists for tests and benchmarks: 0 forces the dense path, a huge
/// value forces the sparse path. Returns the previous multiplier.
double SetBreadthDenseCreditMultiplier(double multiplier);

class BreadthRecommender : public Recommender {
 public:
  /// The library must outlive the recommender.
  explicit BreadthRecommender(const model::ImplementationLibrary* library);

  std::string name() const override {
    return std::string(StrategyName(Strategy::kBreadth));
  }
  RecommendationList Recommend(const model::Activity& activity,
                               size_t k) const override;

  /// The kernel: one postings scatter into `workspace`'s epoch-stamped
  /// counters gives IS(H) and every |A ∩ H|, then the scores accumulate and
  /// emit on its reusable buffers. The IS(H) accumulation loop polls
  /// `stop`; the result is a best-effort partial once it fires.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop, QueryWorkspace* workspace,
                       RecommendationList& out) const override;

  /// Eq. 6 score of a single action (brute force over ImplsOfAction);
  /// exposed for tests and explainability.
  double Score(model::ActionId action, const model::Activity& activity) const;

  /// Sharded fan-out entry point (shard_merge.h): runs the scoring kernel
  /// over this shard's library and dumps every scored candidate action as
  /// an (action, partial score) record — the shard's exact-integer
  /// contribution to the action's global Eq. 6 score. Actions in H are
  /// excluded here (H is shard-independent). `activity` must be
  /// normalised.
  void AccumulateShard(util::IdSpan activity, const util::StopToken* stop,
                       QueryWorkspace& workspace,
                       std::vector<ShardActionScore>& out) const;

 private:
  /// Scatter + score accumulation shared by RecommendPooled and
  /// AccumulateShard. Returns true when the dense accumulator was used
  /// (scores live in ws.dense_score, indexed by action id) and false for
  /// the sparse one (scores behind ws.ScoreOf over ws.touched()). Either
  /// way ws's H marker is set for the caller's emission pass.
  bool AccumulateScores(util::IdSpan activity, const util::StopToken* stop,
                        QueryWorkspace& ws) const;

  const model::ImplementationLibrary* library_;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_BREADTH_H_
