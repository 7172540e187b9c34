// The standing differential safety net: every strategy in src/core/ is run
// against the naive reference oracle (src/testing/reference.h) on hundreds
// of seeded generated hypergraphs per strategy. Hot-path PRs (batching,
// caching, sharded scoring) must keep this suite green — a divergence here
// means ranking semantics drifted from the paper's formulas. Failures print
// the case seed; reproduce interactively with
//   goalrec_fuzz --seed=<printed master seed>
// or regenerate the exact case from the seed in the failure message.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "model/library.h"
#include "testing/differential.h"
#include "testing/fixtures.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "util/random.h"

namespace goalrec::testing {
namespace {

// >= 240 seeded differential cases per strategy (ISSUE 7 acceptance bar;
// supersedes the >= 200 bar from ISSUE 2), swept evenly across every
// generator shape preset — including the kernel-adversarial shapes
// (word/lane-boundary sizes, all-actions-popular, singleton tie storms,
// fat goals). Best Match runs every case under all six variants.
constexpr int kCasesPerStrategy = 320;  // 32 per shape × 10 shapes
constexpr uint64_t kMasterSeed = 20260806;

class OracleDifferentialTest
    : public ::testing::TestWithParam<core::Strategy> {};

TEST_P(OracleDifferentialTest, MatchesReferenceOnSeededGeneratedCases) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/3);
  // One workspace for the whole sequence, as a serving thread keeps one.
  core::QueryWorkspace workspace;
  for (int i = 0; i < kCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c =
        GenerateCase(shapes[static_cast<size_t>(i) % shapes.size()],
                     case_seed);
    for (const core::BestMatchOptions& variant : OracleVariants(GetParam())) {
      DiffOutcome outcome = DiffStrategy(c.library, GetParam(), c.activity,
                                         c.k, DiffOptions{}, variant,
                                         &workspace);
      ASSERT_TRUE(outcome.match)
          << outcome.detail << " (case seed " << case_seed << ", shape "
          << i % shapes.size() << ", |H| = " << c.activity.size()
          << ", k = " << c.k << ")";
    }
  }
}

// The current implementations promise a total order (score desc, action id
// asc; Focus: Algorithm 1 emission order), which the reference reproduces
// exactly — so strict positional comparison must also hold. A refactor that
// legitimately reorders ties may relax this test to the default
// tie-break-aware mode, but must not touch the one above.
TEST_P(OracleDifferentialTest, StrictOrderMatchesOnSeededGeneratedCases) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/4);
  DiffOptions strict;
  strict.strict_order = true;
  core::QueryWorkspace workspace;
  for (int i = 0; i < 100; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c =
        GenerateCase(shapes[static_cast<size_t>(i) % shapes.size()],
                     case_seed);
    for (const core::BestMatchOptions& variant : OracleVariants(GetParam())) {
      DiffOutcome outcome = DiffStrategy(c.library, GetParam(), c.activity,
                                         c.k, strict, variant, &workspace);
      ASSERT_TRUE(outcome.match)
          << outcome.detail << " (case seed " << case_seed << ")";
    }
  }
}

TEST_P(OracleDifferentialTest, MatchesReferenceOnThePaperExample) {
  model::ImplementationLibrary library = PaperLibrary();
  core::QueryWorkspace workspace;
  for (model::Activity h :
       {model::Activity{}, model::Activity{A(1)}, model::Activity{A(2)},
        model::Activity{A(1), A(2)}, model::Activity{A(1), A(2), A(3)},
        model::Activity{A(6)}, model::Activity{A(1), A(4), A(6)}}) {
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
      for (const core::BestMatchOptions& variant :
           OracleVariants(GetParam())) {
        DiffOutcome outcome = DiffStrategy(library, GetParam(), h, k,
                                           DiffOptions{}, variant, &workspace);
        EXPECT_TRUE(outcome.match) << outcome.detail << " |H| = " << h.size()
                                   << ", k = " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, OracleDifferentialTest,
    ::testing::ValuesIn(core::AllStrategies()),
    [](const ::testing::TestParamInfo<core::Strategy>& info) {
      switch (info.param) {
        case core::Strategy::kFocusCompleteness:
          return std::string("FocusCmp");
        case core::Strategy::kFocusCloseness:
          return std::string("FocusCl");
        case core::Strategy::kBreadth:
          return std::string("Breadth");
        case core::Strategy::kBestMatch:
          return std::string("BestMatch");
      }
      return std::string("Unknown");
    });

// The naive space derivations must agree with the indexed ones — this pins
// IS/GS/AS themselves, not just the strategies built on top.
TEST(OracleSpacesTest, NaiveSpacesMatchIndexedSpaces) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/5);
  for (int i = 0; i < 150; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c =
        GenerateCase(shapes[static_cast<size_t>(i) % shapes.size()],
                     case_seed);
    SCOPED_TRACE("case seed " + std::to_string(case_seed));
    EXPECT_EQ(ReferenceImplementationSpace(c.library, c.activity),
              c.library.ImplementationSpace(c.activity));
    EXPECT_EQ(ReferenceGoalSpace(c.library, c.activity),
              c.library.GoalSpace(c.activity));
    EXPECT_EQ(ReferenceActionSpace(c.library, c.activity),
              c.library.ActionSpace(c.activity));
    EXPECT_EQ(ReferenceCandidates(c.library, c.activity),
              c.library.CandidateActions(c.activity));
  }
}

// The fat_goal shape does what the generator promises: on most cases GS(H)
// has implementations outside IS(H), and those hold actions that are
// neither in H nor candidates — the work Best Match's goal-major scan walks
// past without ranking.
TEST(OracleShapesTest, FatGoalShapeReachesOutsideTheImplementationSpace) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  const CaseShape& fat_goal = shapes.back();
  ASSERT_EQ(fat_goal.library.fat_goals, 3u);
  util::Rng seeds(kMasterSeed, /*stream=*/6);
  int outside_impls = 0, non_candidates = 0;
  constexpr int kCases = 40;
  for (int i = 0; i < kCases; ++i) {
    OracleCase c = GenerateCase(fat_goal, seeds.NextUint64());
    std::vector<model::ImplId> impl_space =
        ReferenceImplementationSpace(c.library, c.activity);
    std::vector<model::ActionId> candidates =
        ReferenceCandidates(c.library, c.activity);
    bool impl_outside = false, action_outside = false;
    for (model::GoalId g : ReferenceGoalSpace(c.library, c.activity)) {
      for (model::ImplId p : c.library.ImplsOfGoal(g)) {
        if (std::binary_search(impl_space.begin(), impl_space.end(), p)) {
          continue;
        }
        impl_outside = true;
        for (model::ActionId a : c.library.ActionsOf(p)) {
          if (!std::binary_search(c.activity.begin(), c.activity.end(), a) &&
              !std::binary_search(candidates.begin(), candidates.end(), a)) {
            action_outside = true;
          }
        }
      }
    }
    outside_impls += impl_outside;
    non_candidates += action_outside;
  }
  EXPECT_GE(outside_impls, kCases * 3 / 4);
  EXPECT_GE(non_candidates, kCases / 2);
}

// Pin the comparison itself: a fabricated divergence must be reported, in
// both modes, and the tie-aware mode must accept a within-tie permutation.
TEST(CompareListsTest, DetectsDivergenceAndToleratesTiePermutation) {
  ReferenceList ref = {{2, 1.0}, {5, 0.5}, {7, 0.5}, {9, 0.25}};
  core::RecommendationList same = {{2, 1.0}, {5, 0.5}, {7, 0.5}, {9, 0.25}};
  EXPECT_TRUE(CompareLists(same, ref).match);

  core::RecommendationList tie_swapped = {
      {2, 1.0}, {7, 0.5}, {5, 0.5}, {9, 0.25}};
  EXPECT_TRUE(CompareLists(tie_swapped, ref).match);
  DiffOptions strict;
  strict.strict_order = true;
  EXPECT_FALSE(CompareLists(tie_swapped, ref, strict).match);

  core::RecommendationList wrong_score = {
      {2, 1.0}, {5, 0.5}, {7, 0.4}, {9, 0.25}};
  EXPECT_FALSE(CompareLists(wrong_score, ref).match);

  core::RecommendationList wrong_member = {
      {2, 1.0}, {5, 0.5}, {8, 0.5}, {9, 0.25}};
  EXPECT_FALSE(CompareLists(wrong_member, ref).match);

  core::RecommendationList truncated = {{2, 1.0}, {5, 0.5}, {7, 0.5}};
  EXPECT_FALSE(CompareLists(truncated, ref).match);
}

}  // namespace
}  // namespace goalrec::testing
