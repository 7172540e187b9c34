#include "core/focus.h"

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "testing/fixtures.h"

namespace goalrec::core {
namespace {

using goalrec::testing::A;
using goalrec::testing::PaperLibrary;
using model::IdSet;

TEST(CompletenessTest, Equation3) {
  // completeness(g, A, H) = |A ∩ H| / |A|
  EXPECT_NEAR(Completeness(IdSet{0, 1, 2}, IdSet{1, 2}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(Completeness(IdSet{0, 1}, IdSet{0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(Completeness(IdSet{0, 1}, IdSet{5}), 0.0);
  EXPECT_DOUBLE_EQ(Completeness(IdSet{}, IdSet{1}), 0.0);
}

TEST(ClosenessTest, Equation4) {
  // closeness(g, A, H) = 1 / |A − H|
  EXPECT_DOUBLE_EQ(Closeness(IdSet{0, 1, 2}, IdSet{1}), 0.5);
  EXPECT_DOUBLE_EQ(Closeness(IdSet{0, 1}, IdSet{0}), 1.0);
  // Complete implementations yield 0 (nothing left to recommend).
  EXPECT_DOUBLE_EQ(Closeness(IdSet{0, 1}, IdSet{0, 1}), 0.0);
}

TEST(FocusTest, Names) {
  model::ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(FocusRecommender(&lib, FocusVariant::kCompleteness).name(),
            "Focus_cmp");
  EXPECT_EQ(FocusRecommender(&lib, FocusVariant::kCloseness).name(),
            "Focus_cl");
}

TEST(FocusTest, RankImplementationsCompleteness) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  // H = {a2, a3}: IS(H) = {p1, p4}; completeness 2/3 and 1/2.
  std::vector<RankedImplementation> ranked =
      focus.RankImplementations({A(2), A(3)});
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].impl, 0u);
  EXPECT_NEAR(ranked[0].score, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(ranked[1].impl, 3u);
  EXPECT_NEAR(ranked[1].score, 0.5, 1e-12);
}

TEST(FocusTest, RecommendCompletenessPaperExample) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  // Best implementation p1 is missing a1; next p4 is missing a6.
  RecommendationList list = focus.Recommend({A(2), A(3)}, 10);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].action, A(1));
  EXPECT_NEAR(list[0].score, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(list[1].action, A(6));
  EXPECT_NEAR(list[1].score, 0.5, 1e-12);
}

TEST(FocusTest, RecommendClosenessTiesBreakByImplId) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCloseness);
  // H = {a1}: p2, p3, p5 all have closeness 1, p1 has 1/2; ties resolve in
  // implementation-id order, then p1 contributes a2, a3.
  RecommendationList list = focus.Recommend({A(1)}, 10);
  std::vector<model::ActionId> actions = ActionsOf(list);
  EXPECT_EQ(actions, (std::vector<model::ActionId>{A(4), A(5), A(6), A(2),
                                                   A(3)}));
}

TEST(FocusTest, TruncatesAtK) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  EXPECT_EQ(focus.Recommend({A(1)}, 2).size(), 2u);
  EXPECT_TRUE(focus.Recommend({A(1)}, 0).empty());
}

TEST(FocusTest, SkipsFullyCoveredImplementations) {
  model::LibraryBuilder builder;
  builder.AddImplementation("done", {"x"});
  builder.AddImplementation("todo", {"x", "y"});
  model::ImplementationLibrary lib = std::move(builder).Build();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  model::ActionId x = *lib.actions().Find("x");
  model::ActionId y = *lib.actions().Find("y");
  std::vector<RankedImplementation> ranked = focus.RankImplementations({x});
  ASSERT_EQ(ranked.size(), 1u);  // "done" is complete -> skipped
  EXPECT_EQ(ranked[0].impl, 1u);
  RecommendationList list = focus.Recommend({x}, 10);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].action, y);
}

TEST(FocusTest, NeverRecommendsPerformedActions) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  for (const ScoredAction& entry : focus.Recommend({A(1), A(2)}, 10)) {
    EXPECT_NE(entry.action, A(1));
    EXPECT_NE(entry.action, A(2));
  }
}

TEST(FocusTest, EmptyActivityGivesEmptyList) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCloseness);
  EXPECT_TRUE(focus.Recommend({}, 10).empty());
}

TEST(FocusTest, UnknownActivityGivesEmptyList) {
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  EXPECT_TRUE(focus.Recommend({42}, 10).empty());
}

TEST(FocusTest, NoDuplicateActionsAcrossImplementations) {
  // a6 appears in both p4 and p5; recommending for {a2, a1} surfaces it
  // once.
  model::ImplementationLibrary lib = PaperLibrary();
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);
  RecommendationList list = focus.Recommend({A(1), A(2)}, 10);
  std::vector<model::ActionId> actions = ActionsOf(list);
  std::sort(actions.begin(), actions.end());
  EXPECT_TRUE(std::adjacent_find(actions.begin(), actions.end()) ==
              actions.end());
}

TEST(FocusTest, TieOrderIsStableAcrossEmissionPaths) {
  // Regression for the EmitFromRanking rewrite (re-sorting the emitted
  // prefix per action, O(k² log k), replaced by a marker-array walk): two
  // implementations tying exactly must emit in implementation-id order, each
  // in ascending action-id order, with duplicates credited to the better
  // implementation — and the pooled serving path must produce the identical
  // sequence.
  model::LibraryBuilder builder;
  builder.AddImplementation("g0", {"a0", "a1", "a2"});  // cmp 1/3, tie
  builder.AddImplementation("g1", {"a0", "a2", "a3"});  // cmp 1/3, tie
  builder.AddImplementation("g2", {"a0", "a4"});        // cmp 1/2, best
  model::ImplementationLibrary lib = std::move(builder).Build();
  model::ActionId a0 = *lib.actions().Find("a0");
  FocusRecommender focus(&lib, FocusVariant::kCompleteness);

  RecommendationList list = focus.Recommend({a0}, 10);
  std::vector<model::ActionId> actions = ActionsOf(list);
  // p2's a4 first (score 1/2); then the 1/3 tie: p0 before p1 (impl-id
  // order), p0's actions ascending (a1, a2), p1 adds only a3 (a2 already
  // emitted via p0).
  EXPECT_EQ(actions, (std::vector<model::ActionId>{
                         *lib.actions().Find("a4"), *lib.actions().Find("a1"),
                         *lib.actions().Find("a2"),
                         *lib.actions().Find("a3")}));
  ASSERT_EQ(list.size(), 4u);
  EXPECT_DOUBLE_EQ(list[0].score, 0.5);
  EXPECT_DOUBLE_EQ(list[1].score, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(list[3].score, 1.0 / 3.0);

  // The pooled path, with a workspace reused across repeated queries, must
  // not perturb the order (stale marker state would).
  QueryWorkspace workspace;
  for (int repeat = 0; repeat < 3; ++repeat) {
    RecommendationList pooled;
    focus.RecommendPooled(model::Activity{a0}, 10, nullptr, &workspace,
                          pooled);
    ASSERT_EQ(pooled.size(), list.size());
    for (size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(pooled[i].action, list[i].action) << "rank " << i;
      EXPECT_EQ(pooled[i].score, list[i].score) << "rank " << i;
    }
  }
}

TEST(FocusDeathTest, NullLibraryAborts) {
  EXPECT_DEATH(
      { FocusRecommender focus(nullptr, FocusVariant::kCompleteness); },
      "CHECK failed");
}

}  // namespace
}  // namespace goalrec::core
