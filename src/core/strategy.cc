#include "core/strategy.h"

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"

namespace goalrec::core {

std::vector<Strategy> AllStrategies() {
  std::vector<Strategy> all;
  for (const StrategyInfo& info : kStrategies) all.push_back(info.strategy);
  return all;
}

std::optional<Strategy> FindStrategy(std::string_view name_or_key) {
  for (const StrategyInfo& info : kStrategies) {
    if (name_or_key == info.name || name_or_key == info.key) {
      return info.strategy;
    }
  }
  return std::nullopt;
}

std::unique_ptr<Recommender> MakeStrategy(
    const model::ImplementationLibrary& library, Strategy strategy) {
  return MakeStrategy(library, strategy, BestMatchOptions{});
}

std::unique_ptr<Recommender> MakeStrategy(
    const model::ImplementationLibrary& library, Strategy strategy,
    const BestMatchOptions& best_match) {
  switch (strategy) {
    case Strategy::kFocusCompleteness:
      return std::make_unique<FocusRecommender>(&library,
                                                FocusVariant::kCompleteness);
    case Strategy::kFocusCloseness:
      return std::make_unique<FocusRecommender>(&library,
                                                FocusVariant::kCloseness);
    case Strategy::kBreadth:
      return std::make_unique<BreadthRecommender>(&library);
    case Strategy::kBestMatch:
      break;
  }
  return std::make_unique<BestMatchRecommender>(&library, best_match);
}

}  // namespace goalrec::core
