#include "eval/leave_one_out.h"

#include <algorithm>
#include <cmath>

#include "eval/table.h"
#include "util/logging.h"

namespace goalrec::eval {

LeaveOneOutResult RunLeaveOneOut(const core::Recommender& recommender,
                                 const std::vector<model::Activity>& users,
                                 const LeaveOneOutOptions& options) {
  GOALREC_CHECK_GT(options.k, 0u);
  LeaveOneOutResult result;
  double hits = 0.0;
  double reciprocal_sum = 0.0;
  double ndcg_sum = 0.0;
  for (const model::Activity& activity : users) {
    if (activity.size() < kMinLeaveOneOutActivity) continue;
    size_t holdouts = activity.size();
    if (options.max_holdouts_per_user > 0) {
      holdouts = std::min(holdouts, options.max_holdouts_per_user);
    }
    for (size_t h = 0; h < holdouts; ++h) {
      model::ActionId hidden = activity[h];
      model::Activity visible;
      visible.reserve(activity.size() - 1);
      for (size_t i = 0; i < activity.size(); ++i) {
        if (i != h) visible.push_back(activity[i]);
      }
      core::RecommendationList list =
          recommender.Recommend(visible, options.k);
      ++result.num_trials;
      for (size_t rank = 0; rank < list.size(); ++rank) {
        if (list[rank].action == hidden) {
          hits += 1.0;
          reciprocal_sum += 1.0 / static_cast<double>(rank + 1);
          ndcg_sum += 1.0 / std::log2(static_cast<double>(rank + 2));
          break;
        }
      }
    }
  }
  if (result.num_trials > 0) {
    result.hit_rate = hits / static_cast<double>(result.num_trials);
    result.mean_reciprocal_rank =
        reciprocal_sum / static_cast<double>(result.num_trials);
    result.ndcg = ndcg_sum / static_cast<double>(result.num_trials);
  }
  return result;
}

std::string RenderLeaveOneOut(const std::vector<LeaveOneOutRow>& rows,
                              size_t k) {
  TextTable table({"method", "hit@" + std::to_string(k), "MRR",
                   "NDCG@" + std::to_string(k), "trials"});
  for (const LeaveOneOutRow& row : rows) {
    table.AddRow({row.name, FormatDouble(row.result.hit_rate, 3),
                  FormatDouble(row.result.mean_reciprocal_rank, 3),
                  FormatDouble(row.result.ndcg, 3),
                  std::to_string(row.result.num_trials)});
  }
  return table.ToString();
}

}  // namespace goalrec::eval
