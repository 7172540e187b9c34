#ifndef GOALREC_CORE_STRATEGY_H_
#define GOALREC_CORE_STRATEGY_H_

#include <array>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/recommender.h"
#include "model/library.h"

// The paper's four goal-based strategies (§5) as one table: every layer that
// names or builds a strategy — the serving ladder, the oracle harness, the
// fuzz driver, the CLI and the evaluation roster — reads it here.

namespace goalrec::core {

struct BestMatchOptions;  // core/best_match.h

enum class Strategy {
  kFocusCompleteness,  // Focus_cmp, Eq. 3
  kFocusCloseness,     // Focus_cl, Eq. 4
  kBreadth,            // Eq. 6
  kBestMatch,          // Eqs. 8-10
};

struct StrategyInfo {
  Strategy strategy;
  /// Display name, as Recommender::name() reports it: "Focus_cmp".
  std::string_view name;
  /// Flag and serving-rung key: "focus_cmp".
  std::string_view key;
};

/// The four, in paper order.
inline constexpr std::array<StrategyInfo, 4> kStrategies = {{
    {Strategy::kFocusCompleteness, "Focus_cmp", "focus_cmp"},
    {Strategy::kFocusCloseness, "Focus_cl", "focus_cl"},
    {Strategy::kBreadth, "Breadth", "breadth"},
    {Strategy::kBestMatch, "BestMatch", "best_match"},
}};

// The table is in enum order, so a strategy indexes its own row.
constexpr std::string_view StrategyName(Strategy strategy) {
  return kStrategies[static_cast<size_t>(strategy)].name;
}
constexpr std::string_view StrategyKey(Strategy strategy) {
  return kStrategies[static_cast<size_t>(strategy)].key;
}

/// kStrategies' strategy column, for loops and parameterised tests.
std::vector<Strategy> AllStrategies();

/// The strategy a display name or a key names; nullopt for anything else.
std::optional<Strategy> FindStrategy(std::string_view name_or_key);

/// The strategy's kernel over `library`, which must outlive it; Best Match
/// runs the paper default.
std::unique_ptr<Recommender> MakeStrategy(
    const model::ImplementationLibrary& library, Strategy strategy);

/// As above, with Best Match under `best_match`; the other strategies
/// ignore it.
std::unique_ptr<Recommender> MakeStrategy(
    const model::ImplementationLibrary& library, Strategy strategy,
    const BestMatchOptions& best_match);

}  // namespace goalrec::core

#endif  // GOALREC_CORE_STRATEGY_H_
