#include "testing/reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>

namespace goalrec::testing {
namespace {

// The oracle's only set machinery: std::set and membership tests. Nothing
// here touches util/set_ops, so a bug in the optimized sorted-vector
// primitives cannot hide in the oracle too.

std::set<model::ActionId> ToSet(std::span<const model::ActionId> ids) {
  return std::set<model::ActionId>(ids.begin(), ids.end());
}

bool InSet(const std::set<model::ActionId>& s, model::ActionId a) {
  return s.count(a) != 0;
}

size_t CommonCount(std::span<const model::ActionId> impl_actions,
                   const std::set<model::ActionId>& activity) {
  size_t common = 0;
  for (model::ActionId a : impl_actions) {
    if (InSet(activity, a)) ++common;
  }
  return common;
}

// Missing actions A − H of one implementation, ascending (impl activities
// are stored sorted, and std::set iteration preserves order anyway).
std::vector<model::ActionId> MissingActions(
    std::span<const model::ActionId> impl_actions,
    const std::set<model::ActionId>& activity) {
  std::vector<model::ActionId> missing;
  for (model::ActionId a : impl_actions) {
    if (!InSet(activity, a)) missing.push_back(a);
  }
  return missing;
}

// Shared final ordering for the per-action strategies: score descending,
// action id ascending on ties, truncated to k.
ReferenceList SortAndTruncate(ReferenceList list, size_t k) {
  std::sort(list.begin(), list.end(),
            [](const ReferenceItem& a, const ReferenceItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.action < b.action;
            });
  if (list.size() > k) list.resize(k);
  return list;
}

}  // namespace

std::vector<model::ImplId> ReferenceImplementationSpace(
    const model::ImplementationLibrary& library,
    const model::Activity& activity) {
  std::set<model::ActionId> h = ToSet(activity);
  std::vector<model::ImplId> space;
  for (model::ImplId p = 0; p < library.num_implementations(); ++p) {
    if (CommonCount(library.ActionsOf(p), h) > 0) space.push_back(p);
  }
  return space;
}

std::vector<model::GoalId> ReferenceGoalSpace(
    const model::ImplementationLibrary& library,
    const model::Activity& activity) {
  std::set<model::GoalId> goals;
  for (model::ImplId p : ReferenceImplementationSpace(library, activity)) {
    goals.insert(library.GoalOf(p));
  }
  return std::vector<model::GoalId>(goals.begin(), goals.end());
}

std::vector<model::ActionId> ReferenceActionSpace(
    const model::ImplementationLibrary& library,
    const model::Activity& activity) {
  // Definition 4.2, word for word: for every performed action a, every
  // implementation containing a contributes its *other* actions to AS(a);
  // AS(H) is the union over a ∈ H.
  std::set<model::ActionId> space;
  for (model::ActionId a : activity) {
    for (model::ImplId p = 0; p < library.num_implementations(); ++p) {
      std::span<const model::ActionId> impl_actions = library.ActionsOf(p);
      bool contains_a = false;
      for (model::ActionId b : impl_actions) {
        if (b == a) contains_a = true;
      }
      if (!contains_a) continue;
      for (model::ActionId b : impl_actions) {
        if (b != a) space.insert(b);
      }
    }
  }
  return std::vector<model::ActionId>(space.begin(), space.end());
}

std::vector<model::ActionId> ReferenceCandidates(
    const model::ImplementationLibrary& library,
    const model::Activity& activity) {
  std::set<model::ActionId> h = ToSet(activity);
  std::vector<model::ActionId> candidates;
  for (model::ActionId a : ReferenceActionSpace(library, activity)) {
    if (!InSet(h, a)) candidates.push_back(a);
  }
  return candidates;
}

double ReferenceCompleteness(std::span<const model::ActionId> impl_actions,
                             const model::Activity& activity) {
  if (impl_actions.empty()) return 0.0;
  size_t common = CommonCount(impl_actions, ToSet(activity));
  return static_cast<double>(common) /
         static_cast<double>(impl_actions.size());
}

double ReferenceCloseness(std::span<const model::ActionId> impl_actions,
                          const model::Activity& activity) {
  size_t remaining = MissingActions(impl_actions, ToSet(activity)).size();
  if (remaining == 0) return 0.0;
  return 1.0 / static_cast<double>(remaining);
}

double ReferenceBreadthScore(const model::ImplementationLibrary& library,
                             model::ActionId action,
                             const model::Activity& activity) {
  std::set<model::ActionId> h = ToSet(activity);
  double score = 0.0;
  for (model::ImplId p = 0; p < library.num_implementations(); ++p) {
    std::span<const model::ActionId> impl_actions = library.ActionsOf(p);
    bool contains_action = false;
    for (model::ActionId b : impl_actions) {
      if (b == action) contains_action = true;
    }
    if (!contains_action) continue;
    score += static_cast<double>(CommonCount(impl_actions, h));
  }
  return score;
}

std::vector<double> ReferenceActionGoalVector(
    const model::ImplementationLibrary& library, model::ActionId action,
    const std::vector<model::GoalId>& goal_space) {
  // One pass over every implementation: each occurrence of `action` adds 1
  // to the dimension of its implementation's goal, found through a map of
  // the goal space built here.
  std::map<model::GoalId, size_t> dimension;
  for (size_t i = 0; i < goal_space.size(); ++i) dimension[goal_space[i]] = i;
  std::vector<double> vec(goal_space.size(), 0.0);
  for (model::ImplId p = 0; p < library.num_implementations(); ++p) {
    auto it = dimension.find(library.GoalOf(p));
    if (it == dimension.end()) continue;
    for (model::ActionId b : library.ActionsOf(p)) {
      if (b == action) vec[it->second] += 1.0;
    }
  }
  return vec;
}

std::vector<double> ReferenceProfile(
    const model::ImplementationLibrary& library,
    const model::Activity& activity,
    const std::vector<model::GoalId>& goal_space) {
  std::vector<double> profile(goal_space.size(), 0.0);
  for (model::ActionId a : activity) {
    std::vector<double> vec = ReferenceActionGoalVector(library, a, goal_space);
    for (size_t i = 0; i < profile.size(); ++i) profile[i] += vec[i];
  }
  return profile;
}

ReferenceList ReferenceFocus(const model::ImplementationLibrary& library,
                             ReferenceFocusVariant variant,
                             const model::Activity& activity, size_t k) {
  if (k == 0) return {};
  struct RankedImpl {
    model::ImplId impl;
    double score;
  };
  std::set<model::ActionId> h = ToSet(activity);
  std::vector<RankedImpl> ranked;
  for (model::ImplId p : ReferenceImplementationSpace(library, activity)) {
    std::span<const model::ActionId> impl_actions = library.ActionsOf(p);
    if (MissingActions(impl_actions, h).empty()) continue;  // complete
    double score = variant == ReferenceFocusVariant::kCompleteness
                       ? ReferenceCompleteness(impl_actions, activity)
                       : ReferenceCloseness(impl_actions, activity);
    ranked.push_back(RankedImpl{p, score});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedImpl& a, const RankedImpl& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.impl < b.impl;
            });
  ReferenceList list;
  std::set<model::ActionId> emitted;
  for (const RankedImpl& entry : ranked) {
    for (model::ActionId a :
         MissingActions(library.ActionsOf(entry.impl), h)) {
      if (InSet(emitted, a)) continue;
      emitted.insert(a);
      list.push_back(ReferenceItem{a, entry.score});
      if (list.size() == k) return list;
    }
  }
  return list;
}

ReferenceList ReferenceBreadth(const model::ImplementationLibrary& library,
                               const model::Activity& activity, size_t k) {
  if (k == 0) return {};
  std::set<model::ActionId> h = ToSet(activity);
  ReferenceList list;
  for (model::ActionId a = 0; a < library.num_actions(); ++a) {
    if (InSet(h, a)) continue;  // already performed
    double score = ReferenceBreadthScore(library, a, activity);
    if (score > 0.0) list.push_back(ReferenceItem{a, score});
  }
  return SortAndTruncate(std::move(list), k);
}

ReferenceList ReferenceBestMatch(const model::ImplementationLibrary& library,
                                 const model::Activity& activity, size_t k,
                                 const core::BestMatchOptions& options) {
  if (k == 0) return {};
  std::vector<model::GoalId> goal_space = ReferenceGoalSpace(library, activity);
  if (goal_space.empty()) return {};
  // Eq. 8 counts, or Eq. 7: 1 wherever the count is non-zero.
  auto embed = [&](model::ActionId a) {
    std::vector<double> vec = ReferenceActionGoalVector(library, a, goal_space);
    if (options.representation == core::GoalVectorRepresentation::kBoolean) {
      for (double& v : vec) v = v > 0.0 ? 1.0 : 0.0;
    }
    return vec;
  };
  // Eq. 9 over the chosen embedding.
  std::vector<double> profile(goal_space.size(), 0.0);
  for (model::ActionId a : activity) {
    std::vector<double> vec = embed(a);
    for (size_t i = 0; i < profile.size(); ++i) profile[i] += vec[i];
  }
  ReferenceList list;
  for (model::ActionId a : ReferenceCandidates(library, activity)) {
    std::vector<double> vec = embed(a);
    double distance = 0.0;
    switch (options.metric) {
      case util::DistanceMetric::kEuclidean: {
        double sum_of_squares = 0.0;
        for (size_t i = 0; i < profile.size(); ++i) {
          double diff = profile[i] - vec[i];
          sum_of_squares += diff * diff;
        }
        distance = std::sqrt(sum_of_squares);
        break;
      }
      case util::DistanceMetric::kManhattan:
        for (size_t i = 0; i < profile.size(); ++i) {
          distance += std::abs(profile[i] - vec[i]);
        }
        break;
      case util::DistanceMetric::kCosine: {
        // 1 − cos(H⃗, a⃗), with cos = 0 when either vector is zero.
        double dot = 0.0, profile_sq = 0.0, vec_sq = 0.0;
        for (size_t i = 0; i < profile.size(); ++i) {
          dot += profile[i] * vec[i];
          profile_sq += profile[i] * profile[i];
          vec_sq += vec[i] * vec[i];
        }
        double norm_profile = std::sqrt(profile_sq);
        double norm_vec = std::sqrt(vec_sq);
        double cosine = (norm_profile == 0.0 || norm_vec == 0.0)
                            ? 0.0
                            : dot / (norm_profile * norm_vec);
        distance = 1.0 - cosine;
        break;
      }
    }
    // Negated so the shared "higher score wins" ordering applies.
    list.push_back(ReferenceItem{a, -distance});
  }
  return SortAndTruncate(std::move(list), k);
}

}  // namespace goalrec::testing
