#ifndef GOALREC_EVAL_METRICS_H_
#define GOALREC_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "core/recommender.h"
#include "model/features.h"
#include "model/library.h"
#include "model/types.h"
#include "util/stats.h"

// The measurements of the paper's evaluation (§6.1): list overlap (Tables 2
// and 6), popularity correlation (Table 3), goal completeness (Table 4 /
// Figure 3), pairwise feature similarity (Table 5), average true-positive
// rate (Figure 4) and the two frequency distributions (Figures 5 and 6).

namespace goalrec::eval {

/// Fraction of actions two recommendation lists share:
/// |A ∩ B| / max(|A|, |B|); 0 when both lists are empty. With equally sized
/// top-k lists this is the paper's "percentage of common actions".
double ListOverlap(const core::RecommendationList& a,
                   const core::RecommendationList& b);

/// Mean ListOverlap across paired lists of two methods (same users, same
/// order). Requires equal sizes.
double MeanListOverlap(const std::vector<core::RecommendationList>& a,
                       const std::vector<core::RecommendationList>& b);

/// Completeness of goal `g` given the performed actions: the best coverage
/// over all of g's implementations, max_p |A_p ∩ performed| / |A_p|.
double GoalCompleteness(const model::ImplementationLibrary& library,
                        model::GoalId g, const model::Activity& performed);

/// Per-list goal-completeness summary (Table 4): for each goal in `goals`,
/// the completeness after the user performs `activity` ∪ `recommended`;
/// returns the min/avg/max over the goals. `goals` is the user's true goals
/// for 43T, or the whole goal space GS(activity) for FoodMart.
util::Summary CompletenessAfterList(
    const model::ImplementationLibrary& library, const model::IdSet& goals,
    const model::Activity& activity, const core::RecommendationList& list);

/// True-positive rate of one list: fraction of recommended actions present
/// in the user's hidden actions (Figure 4's Avg TPR, averaged by the
/// caller). 0 for an empty list.
double TruePositiveRate(const core::RecommendationList& list,
                        const model::Activity& hidden);

/// Pairwise feature-similarity summary of one list (Table 5): min/avg/max
/// over all unordered action pairs. Lists with fewer than two actions give
/// an empty (count == 0) summary.
util::Summary PairwiseFeatureSimilarity(const model::ActionFeatureTable& table,
                                        const core::RecommendationList& list);

/// Popularity correlation (Table 3): finds the `top_n` most frequent actions
/// across `activities`, counts each one's appearances in `lists`, and
/// returns the Pearson correlation between activity counts and list counts.
double PopularityCorrelation(
    const std::vector<model::Activity>& activities,
    const std::vector<core::RecommendationList>& lists, size_t top_n = 20);

/// Figure 5: for every action appearing in at least one list, its frequency
/// = (#lists containing it) / (#lists), accumulated into `histogram`.
void AddRecListFrequencies(const std::vector<core::RecommendationList>& lists,
                           util::Histogram& histogram);

/// Figure 6: for every *distinct* action retrieved by any list, its
/// implementation-set frequency |ImplsOfAction(a)| / #implementations,
/// accumulated into `histogram`.
void AddImplSetFrequencies(const model::ImplementationLibrary& library,
                           const std::vector<core::RecommendationList>& lists,
                           util::Histogram& histogram);

}  // namespace goalrec::eval

#endif  // GOALREC_EVAL_METRICS_H_
