#ifndef GOALREC_EVAL_LEAVE_ONE_OUT_H_
#define GOALREC_EVAL_LEAVE_ONE_OUT_H_

#include <string>
#include <vector>

#include "core/recommender.h"
#include "model/types.h"

// Leave-one-out evaluation: the standard recommender-systems protocol that
// complements the paper's 30/70 split. For each user, each action of the
// activity is hidden in turn; the recommender sees the rest and is scored on
// whether the hidden action lands in its top-k (hit rate) and where
// (mean reciprocal rank).

namespace goalrec::eval {

struct LeaveOneOutResult {
  /// Fraction of (user, held-out action) trials where the held-out action
  /// appeared in the top-k.
  double hit_rate = 0.0;
  /// Mean of 1/rank over hits (0 contribution for misses).
  double mean_reciprocal_rank = 0.0;
  /// Mean NDCG@k: with a single relevant item this is 1/log2(rank+1) for
  /// hits and 0 for misses.
  double ndcg = 0.0;
  size_t num_trials = 0;
};

/// Activities smaller than this are skipped (hiding the only action leaves
/// no evidence).
inline constexpr size_t kMinLeaveOneOutActivity = 2;

struct LeaveOneOutOptions {
  size_t k = 10;
  /// Cap on held-out trials per user, taken from the start of the sorted
  /// activity (0 = all actions). Bounds cost on large activities.
  size_t max_holdouts_per_user = 0;
};

/// Runs the protocol for one recommender over the given activities.
LeaveOneOutResult RunLeaveOneOut(const core::Recommender& recommender,
                                 const std::vector<model::Activity>& users,
                                 const LeaveOneOutOptions& options = {});

/// Renders "hit@k  MRR  trials" rows for several methods.
struct LeaveOneOutRow {
  std::string name;
  LeaveOneOutResult result;
};
std::string RenderLeaveOneOut(const std::vector<LeaveOneOutRow>& rows,
                              size_t k);

}  // namespace goalrec::eval

#endif  // GOALREC_EVAL_LEAVE_ONE_OUT_H_
