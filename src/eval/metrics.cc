#include "eval/metrics.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::eval {
namespace {

model::IdSet SortedActions(const core::RecommendationList& list) {
  model::IdSet actions = core::ActionsOf(list);
  util::Normalize(actions);
  return actions;
}

}  // namespace

double ListOverlap(const core::RecommendationList& a,
                   const core::RecommendationList& b) {
  if (a.empty() && b.empty()) return 0.0;
  model::IdSet sa = SortedActions(a);
  model::IdSet sb = SortedActions(b);
  size_t common = util::IntersectionSize(sa, sb);
  return static_cast<double>(common) /
         static_cast<double>(std::max(sa.size(), sb.size()));
}

double MeanListOverlap(const std::vector<core::RecommendationList>& a,
                       const std::vector<core::RecommendationList>& b) {
  GOALREC_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += ListOverlap(a[i], b[i]);
  return total / static_cast<double>(a.size());
}

double GoalCompleteness(const model::ImplementationLibrary& library,
                        model::GoalId g, const model::Activity& performed) {
  double best = 0.0;
  for (model::ImplId p : library.ImplsOfGoal(g)) {
    std::span<const model::ActionId> actions = library.ActionsOf(p);
    if (actions.empty()) continue;
    double completeness =
        static_cast<double>(util::IntersectionSize(actions, performed)) /
        static_cast<double>(actions.size());
    best = std::max(best, completeness);
  }
  return best;
}

util::Summary CompletenessAfterList(
    const model::ImplementationLibrary& library, const model::IdSet& goals,
    const model::Activity& activity, const core::RecommendationList& list) {
  model::Activity performed = activity;
  for (const core::ScoredAction& entry : list) performed.push_back(entry.action);
  util::Normalize(performed);
  std::vector<double> values;
  values.reserve(goals.size());
  for (model::GoalId g : goals) {
    values.push_back(GoalCompleteness(library, g, performed));
  }
  return util::Summarize(values);
}

double TruePositiveRate(const core::RecommendationList& list,
                        const model::Activity& hidden) {
  if (list.empty()) return 0.0;
  size_t hits = 0;
  for (const core::ScoredAction& entry : list) {
    if (util::Contains(hidden, entry.action)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(list.size());
}

util::Summary PairwiseFeatureSimilarity(const model::ActionFeatureTable& table,
                                        const core::RecommendationList& list) {
  std::vector<double> sims;
  for (size_t i = 0; i < list.size(); ++i) {
    for (size_t j = i + 1; j < list.size(); ++j) {
      sims.push_back(
          model::FeatureSimilarity(table, list[i].action, list[j].action));
    }
  }
  return util::Summarize(sims);
}

double PopularityCorrelation(
    const std::vector<model::Activity>& activities,
    const std::vector<core::RecommendationList>& lists, size_t top_n) {
  // Count activity appearances per action.
  std::unordered_map<model::ActionId, size_t> activity_counts;
  for (const model::Activity& activity : activities) {
    for (model::ActionId a : activity) ++activity_counts[a];
  }
  // The top_n most popular actions, ties broken by ascending id for
  // determinism.
  std::vector<std::pair<model::ActionId, size_t>> ranked(
      activity_counts.begin(), activity_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  if (ranked.size() > top_n) ranked.resize(top_n);
  if (ranked.size() < 2) return 0.0;

  // Appearances of those actions across the recommendation lists.
  std::unordered_map<model::ActionId, size_t> list_counts;
  for (const core::RecommendationList& list : lists) {
    for (const core::ScoredAction& entry : list) ++list_counts[entry.action];
  }
  std::vector<double> x, y;
  x.reserve(ranked.size());
  y.reserve(ranked.size());
  for (const auto& [action, count] : ranked) {
    x.push_back(static_cast<double>(count));
    auto it = list_counts.find(action);
    y.push_back(it == list_counts.end() ? 0.0
                                        : static_cast<double>(it->second));
  }
  return util::PearsonCorrelation(x, y);
}

void AddRecListFrequencies(const std::vector<core::RecommendationList>& lists,
                           util::Histogram& histogram) {
  if (lists.empty()) return;
  std::unordered_map<model::ActionId, size_t> list_counts;
  for (const core::RecommendationList& list : lists) {
    model::IdSet distinct = SortedActions(list);
    for (model::ActionId a : distinct) ++list_counts[a];
  }
  double denom = static_cast<double>(lists.size());
  for (const auto& [action, count] : list_counts) {
    histogram.Add(static_cast<double>(count) / denom);
  }
}

void AddImplSetFrequencies(const model::ImplementationLibrary& library,
                           const std::vector<core::RecommendationList>& lists,
                           util::Histogram& histogram) {
  if (library.num_implementations() == 0) return;
  model::IdSet retrieved;
  for (const core::RecommendationList& list : lists) {
    for (const core::ScoredAction& entry : list) {
      retrieved.push_back(entry.action);
    }
  }
  util::Normalize(retrieved);
  double denom = static_cast<double>(library.num_implementations());
  for (model::ActionId a : retrieved) {
    if (a >= library.num_actions()) continue;
    histogram.Add(static_cast<double>(library.ImplsOfAction(a).size()) /
                  denom);
  }
}

}  // namespace goalrec::eval
