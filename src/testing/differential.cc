#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"

namespace goalrec::testing {
namespace {

bool ScoresEqual(double a, double b, double tolerance) {
  if (tolerance == 0.0) return a == b;
  return std::abs(a - b) <= tolerance;
}

std::string RenderItem(model::ActionId action, double score) {
  std::ostringstream out;
  out.precision(17);
  out << "(action " << action << ", score " << score << ")";
  return out.str();
}

// The run of indices [i, j) sharing optimized[i]'s score (reference scores
// are positionally equal by the time runs are compared).
size_t ScoreRunEnd(const core::RecommendationList& list, size_t i) {
  size_t j = i + 1;
  while (j < list.size() && list[j].score == list[i].score) ++j;
  return j;
}

}  // namespace

std::vector<OracleStrategy> AllOracleStrategies() {
  return {OracleStrategy::kFocusCompleteness, OracleStrategy::kFocusCloseness,
          OracleStrategy::kBreadth, OracleStrategy::kBestMatch};
}

const char* OracleStrategyName(OracleStrategy strategy) {
  switch (strategy) {
    case OracleStrategy::kFocusCompleteness:
      return "Focus_cmp";
    case OracleStrategy::kFocusCloseness:
      return "Focus_cl";
    case OracleStrategy::kBreadth:
      return "Breadth";
    case OracleStrategy::kBestMatch:
      return "BestMatch";
  }
  return "unknown";
}

std::optional<OracleStrategy> OracleStrategyFromName(std::string_view name) {
  for (OracleStrategy s : AllOracleStrategies()) {
    if (name == OracleStrategyName(s)) return s;
  }
  return std::nullopt;
}

std::vector<core::BestMatchOptions> OracleVariants(OracleStrategy strategy) {
  if (strategy != OracleStrategy::kBestMatch) return {core::BestMatchOptions{}};
  std::vector<core::BestMatchOptions> variants;
  for (core::GoalVectorRepresentation representation :
       {core::GoalVectorRepresentation::kImplementationCount,
        core::GoalVectorRepresentation::kBoolean}) {
    for (util::DistanceMetric metric :
         {util::DistanceMetric::kEuclidean, util::DistanceMetric::kManhattan,
          util::DistanceMetric::kCosine}) {
      core::BestMatchOptions options;
      options.representation = representation;
      options.metric = metric;
      variants.push_back(options);
    }
  }
  return variants;
}

std::string OracleVariantName(OracleStrategy strategy,
                              const core::BestMatchOptions& best_match) {
  std::string name = OracleStrategyName(strategy);
  const core::BestMatchOptions paper_default;
  if (strategy != OracleStrategy::kBestMatch ||
      (best_match.representation == paper_default.representation &&
       best_match.metric == paper_default.metric)) {
    return name;
  }
  name += best_match.representation == core::GoalVectorRepresentation::kBoolean
              ? "/boolean"
              : "/counts";
  switch (best_match.metric) {
    case util::DistanceMetric::kEuclidean:
      return name + "/euclidean";
    case util::DistanceMetric::kManhattan:
      return name + "/manhattan";
    case util::DistanceMetric::kCosine:
      return name + "/cosine";
  }
  return name;
}

std::optional<OracleVariant> OracleVariantFromName(std::string_view name) {
  for (OracleStrategy s : AllOracleStrategies()) {
    for (const core::BestMatchOptions& best_match : OracleVariants(s)) {
      if (name == OracleVariantName(s, best_match)) {
        return OracleVariant{s, best_match};
      }
    }
  }
  return std::nullopt;
}

DiffOutcome CompareLists(const core::RecommendationList& optimized,
                         const ReferenceList& reference,
                         const DiffOptions& options) {
  DiffOutcome outcome;
  if (optimized.size() != reference.size()) {
    std::ostringstream out;
    out << "length mismatch: optimized " << optimized.size() << " items, "
        << "reference " << reference.size();
    return DiffOutcome{false, out.str()};
  }
  // Scores must agree position by position in both modes: the ranked score
  // sequence is part of the contract.
  for (size_t i = 0; i < optimized.size(); ++i) {
    if (!ScoresEqual(optimized[i].score, reference[i].score,
                     options.score_tolerance)) {
      std::ostringstream out;
      out << "score mismatch at rank " << i << ": optimized "
          << RenderItem(optimized[i].action, optimized[i].score)
          << " vs reference "
          << RenderItem(reference[i].action, reference[i].score);
      return DiffOutcome{false, out.str()};
    }
  }
  if (options.strict_order) {
    for (size_t i = 0; i < optimized.size(); ++i) {
      if (optimized[i].action != reference[i].action) {
        std::ostringstream out;
        out << "action mismatch at rank " << i << ": optimized "
            << RenderItem(optimized[i].action, optimized[i].score)
            << " vs reference "
            << RenderItem(reference[i].action, reference[i].score);
        return DiffOutcome{false, out.str()};
      }
    }
    return outcome;
  }
  // Tie-break-aware: within each run of equal scores the two sides must
  // recommend the same *set* of actions; order inside the run is free.
  size_t i = 0;
  while (i < optimized.size()) {
    size_t j = ScoreRunEnd(optimized, i);
    std::vector<model::ActionId> got, want;
    for (size_t r = i; r < j; ++r) {
      got.push_back(optimized[r].action);
      want.push_back(reference[r].action);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      std::ostringstream out;
      out << "tie-group mismatch at ranks [" << i << ", " << j
          << ") with score " << optimized[i].score << ": optimized {";
      for (model::ActionId a : got) out << " " << a;
      out << " } vs reference {";
      for (model::ActionId a : want) out << " " << a;
      out << " }";
      return DiffOutcome{false, out.str()};
    }
    i = j;
  }
  return outcome;
}

core::RecommendationList RunOptimized(
    const model::ImplementationLibrary& library, OracleStrategy strategy,
    const model::Activity& activity, size_t k,
    const core::BestMatchOptions& best_match) {
  switch (strategy) {
    case OracleStrategy::kFocusCompleteness:
      return core::FocusRecommender(&library, core::FocusVariant::kCompleteness)
          .Recommend(activity, k);
    case OracleStrategy::kFocusCloseness:
      return core::FocusRecommender(&library, core::FocusVariant::kCloseness)
          .Recommend(activity, k);
    case OracleStrategy::kBreadth:
      return core::BreadthRecommender(&library).Recommend(activity, k);
    case OracleStrategy::kBestMatch:
      return core::BestMatchRecommender(&library, best_match)
          .Recommend(activity, k);
  }
  return {};
}

core::RecommendationList RunOptimizedPooled(
    const model::ImplementationLibrary& library, OracleStrategy strategy,
    const model::Activity& activity, size_t k, core::QueryWorkspace& workspace,
    const core::BestMatchOptions& best_match) {
  core::RecommendationList out;
  switch (strategy) {
    case OracleStrategy::kFocusCompleteness:
      core::FocusRecommender(&library, core::FocusVariant::kCompleteness)
          .RecommendPooled(activity, k, nullptr, &workspace, out);
      break;
    case OracleStrategy::kFocusCloseness:
      core::FocusRecommender(&library, core::FocusVariant::kCloseness)
          .RecommendPooled(activity, k, nullptr, &workspace, out);
      break;
    case OracleStrategy::kBreadth:
      core::BreadthRecommender(&library).RecommendPooled(activity, k, nullptr,
                                                         &workspace, out);
      break;
    case OracleStrategy::kBestMatch:
      core::BestMatchRecommender(&library, best_match)
          .RecommendPooled(activity, k, nullptr, &workspace, out);
      break;
  }
  return out;
}

ReferenceList RunReference(const model::ImplementationLibrary& library,
                           OracleStrategy strategy,
                           const model::Activity& activity, size_t k,
                           const core::BestMatchOptions& best_match) {
  switch (strategy) {
    case OracleStrategy::kFocusCompleteness:
      return ReferenceFocus(library, ReferenceFocusVariant::kCompleteness,
                            activity, k);
    case OracleStrategy::kFocusCloseness:
      return ReferenceFocus(library, ReferenceFocusVariant::kCloseness,
                            activity, k);
    case OracleStrategy::kBreadth:
      return ReferenceBreadth(library, activity, k);
    case OracleStrategy::kBestMatch:
      return ReferenceBestMatch(library, activity, k, best_match);
  }
  return {};
}

DiffOutcome DiffStrategy(const model::ImplementationLibrary& library,
                         OracleStrategy strategy,
                         const model::Activity& activity, size_t k,
                         const DiffOptions& options,
                         const core::BestMatchOptions& best_match) {
  DiffOutcome outcome = CompareLists(
      RunOptimized(library, strategy, activity, k, best_match),
      RunReference(library, strategy, activity, k, best_match), options);
  if (!outcome.match) {
    outcome.detail =
        OracleVariantName(strategy, best_match) + ": " + outcome.detail;
  }
  return outcome;
}

}  // namespace goalrec::testing
