// Metamorphic properties of the strategies: transformations of the library
// or the activity with a provable effect on the output. Unlike the
// differential suite these need no oracle — the strategy is checked against
// itself under a structure-preserving change.
//
//   1. Duplicating an implementation never changes Focus output (the copy
//      ranks directly after the original and all of its missing actions are
//      already emitted).
//   2. Adding an action to H that appears in no implementation changes
//      nothing, for every strategy (it joins no space and contributes a
//      zero vector).
//   3. Relabeling action ids by a permutation permutes the recommendations
//      but preserves scores, for every strategy (nothing in the formulas
//      depends on the numeric value of an action id).
//   4. Padding the vocabulary with unused actions and goals changes nothing,
//      bit-for-bit, for every strategy and on both the allocating and the
//      pooled serving paths. The scoring kernels size their dense marker /
//      counter / slot arrays by the vocabulary, so this pins down that array
//      sizing, epoch grounding and tail handling never leak into scores or
//      ranked order (pad widths cross the 64-element word boundary).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "model/library.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace goalrec::testing {
namespace {

constexpr uint64_t kMasterSeed = 20260807;
constexpr int kTrials = 60;

// Generated case variety: cycle the shape presets.
OracleCase CaseForTrial(int trial, util::Rng& seeds) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  return GenerateCase(shapes[static_cast<size_t>(trial) % shapes.size()],
                      seeds.NextUint64());
}

// Library with implementation `p` appended again (same goal, same actions).
model::ImplementationLibrary WithDuplicatedImpl(
    const model::ImplementationLibrary& library, model::ImplId p) {
  model::LibraryBuilder builder = model::LibraryBuilder::FromLibrary(library);
  builder.AddImplementationIds(library.GoalOf(p), library.ActionsOf(p));
  return std::move(builder).Build();
}

TEST(MetamorphicTest, DuplicatingAnImplementationNeverChangesFocus) {
  util::Rng seeds(kMasterSeed, /*stream=*/11);
  int exercised = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    OracleCase c = CaseForTrial(trial, seeds);
    if (c.library.num_implementations() == 0) continue;
    util::Rng rng(seeds.NextUint64(), /*stream=*/12);
    model::ImplId p = rng.UniformUint32(c.library.num_implementations());
    model::ImplementationLibrary duplicated = WithDuplicatedImpl(c.library, p);
    for (core::FocusVariant variant :
         {core::FocusVariant::kCompleteness, core::FocusVariant::kCloseness}) {
      core::FocusRecommender original(&c.library, variant);
      core::FocusRecommender doubled(&duplicated, variant);
      for (size_t k : {size_t{1}, c.k, size_t{c.library.num_actions()}}) {
        EXPECT_EQ(original.Recommend(c.activity, k),
                  doubled.Recommend(c.activity, k))
            << original.name() << " changed after duplicating impl " << p
            << " (trial " << trial << ", k = " << k << ")";
      }
    }
    ++exercised;
  }
  EXPECT_GT(exercised, kTrials / 2);
}

TEST(MetamorphicTest, UnusedActionInActivityChangesNothing) {
  util::Rng seeds(kMasterSeed, /*stream=*/13);
  for (int trial = 0; trial < kTrials; ++trial) {
    OracleCase c = CaseForTrial(trial, seeds);
    // Intern a fresh action used by no implementation, then add it to H.
    model::LibraryBuilder builder =
        model::LibraryBuilder::FromLibrary(c.library);
    model::ActionId fresh = builder.InternAction("metamorphic_fresh_action");
    model::ImplementationLibrary extended = std::move(builder).Build();
    model::Activity with_fresh = c.activity;
    with_fresh.push_back(fresh);
    util::Normalize(with_fresh);

    for (core::Strategy strategy : core::AllStrategies()) {
      EXPECT_EQ(RunOptimized(extended, strategy, c.activity, c.k),
                RunOptimized(extended, strategy, with_fresh, c.k))
          << core::StrategyName(strategy)
          << " changed after adding an unused action to H (trial " << trial
          << ")";
    }
  }
}

// Library with `extra_actions` fresh unused actions and `extra_goals` fresh
// goal-less goals appended to the vocabularies; no implementation changes.
model::ImplementationLibrary WithPaddedVocabulary(
    const model::ImplementationLibrary& library, uint32_t extra_actions,
    uint32_t extra_goals) {
  model::LibraryBuilder builder = model::LibraryBuilder::FromLibrary(library);
  for (uint32_t i = 0; i < extra_actions; ++i) {
    builder.InternAction("pad_action_" + std::to_string(i));
  }
  for (uint32_t i = 0; i < extra_goals; ++i) {
    builder.InternGoal("pad_goal_" + std::to_string(i));
  }
  return std::move(builder).Build();
}

TEST(MetamorphicTest, VocabularyPaddingIsBitInvariant) {
  util::Rng seeds(kMasterSeed, /*stream=*/17);
  // Pad widths deliberately straddle the 64-element word boundary: +1 (tail
  // of the current word), +64 (exactly one more word), +257 (four words + 1).
  const uint32_t kPads[] = {1, 64, 257};
  core::QueryWorkspace base_ws;
  core::QueryWorkspace padded_ws;
  for (int trial = 0; trial < kTrials; ++trial) {
    OracleCase c = CaseForTrial(trial, seeds);
    for (uint32_t pad : kPads) {
      model::ImplementationLibrary padded =
          WithPaddedVocabulary(c.library, pad, pad);
      for (core::Strategy strategy : core::AllStrategies()) {
        core::RecommendationList base =
            RunOptimized(c.library, strategy, c.activity, c.k);
        EXPECT_EQ(base, RunOptimized(padded, strategy, c.activity, c.k))
            << core::StrategyName(strategy) << " changed under +" << pad
            << " vocabulary padding (trial " << trial << ")";
        // The pooled kernels on both libraries, through workspaces reused
        // across trials and pad widths (the serving-path reuse pattern).
        EXPECT_EQ(base, RunOptimizedPooled(c.library, strategy, c.activity,
                                           c.k, base_ws))
            << core::StrategyName(strategy)
            << " pooled path diverges unpadded (trial " << trial << ")";
        EXPECT_EQ(base, RunOptimizedPooled(padded, strategy, c.activity, c.k,
                                           padded_ws))
            << core::StrategyName(strategy) << " pooled path changed under +"
            << pad << " vocabulary padding (trial " << trial << ")";
      }
    }
  }
}

// Relabels action ids by a random permutation perm (old id -> new id),
// keeping goal ids and implementation order intact.
struct PermutedLibrary {
  model::ImplementationLibrary library;
  std::vector<model::ActionId> perm;
};

PermutedLibrary PermuteActions(const model::ImplementationLibrary& library,
                               util::Rng& rng) {
  uint32_t n = library.num_actions();
  std::vector<model::ActionId> perm(n);
  for (uint32_t a = 0; a < n; ++a) perm[a] = a;
  rng.Shuffle(perm);
  std::vector<model::ActionId> inverse(n);
  for (uint32_t a = 0; a < n; ++a) inverse[perm[a]] = a;

  model::LibraryBuilder builder;
  for (uint32_t new_id = 0; new_id < n; ++new_id) {
    builder.InternAction(library.actions().Name(inverse[new_id]));
  }
  for (uint32_t g = 0; g < library.num_goals(); ++g) {
    builder.InternGoal(library.goals().Name(g));
  }
  for (model::ImplId p = 0; p < library.num_implementations(); ++p) {
    model::IdSet mapped;
    for (model::ActionId a : library.ActionsOf(p)) mapped.push_back(perm[a]);
    builder.AddImplementationIds(library.GoalOf(p), std::move(mapped));
  }
  return PermutedLibrary{std::move(builder).Build(), std::move(perm)};
}

// Canonical order for comparing lists up to tie reordering: score
// descending, action ascending.
core::RecommendationList Canonical(core::RecommendationList list) {
  std::sort(list.begin(), list.end(),
            [](const core::ScoredAction& a, const core::ScoredAction& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.action < b.action;
            });
  return list;
}

TEST(MetamorphicTest, ActionIdPermutationPermutesButPreservesScores) {
  util::Rng seeds(kMasterSeed, /*stream=*/15);
  for (int trial = 0; trial < kTrials; ++trial) {
    OracleCase c = CaseForTrial(trial, seeds);
    if (c.library.num_actions() == 0) continue;
    util::Rng rng(seeds.NextUint64(), /*stream=*/16);
    PermutedLibrary permuted = PermuteActions(c.library, rng);
    model::Activity mapped_h;
    for (model::ActionId a : c.activity) mapped_h.push_back(permuted.perm[a]);
    util::Normalize(mapped_h);

    // Unbounded k: with k below the candidate count the boundary selection
    // among tied scores is id-dependent by contract, so only the unbounded
    // lists are permutation-equivariant as sets.
    size_t k = c.library.num_actions();
    for (core::Strategy strategy : core::AllStrategies()) {
      core::RecommendationList base =
          RunOptimized(c.library, strategy, c.activity, k);
      for (core::ScoredAction& entry : base) {
        entry.action = permuted.perm[entry.action];
      }
      core::RecommendationList relabeled =
          RunOptimized(permuted.library, strategy, mapped_h, k);
      EXPECT_EQ(Canonical(std::move(base)),
                Canonical(std::move(relabeled)))
          << core::StrategyName(strategy)
          << " is not permutation-equivariant (trial " << trial << ")";
    }
  }
}

}  // namespace
}  // namespace goalrec::testing
