#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace goalrec::eval {
namespace {

using goalrec::testing::A;
using goalrec::testing::G;
using goalrec::testing::PaperLibrary;

core::RecommendationList MakeList(std::vector<model::ActionId> actions) {
  core::RecommendationList list;
  for (model::ActionId a : actions) list.push_back({a, 0.0});
  return list;
}

TEST(ListOverlapTest, Basic) {
  EXPECT_DOUBLE_EQ(ListOverlap(MakeList({1, 2, 3}), MakeList({2, 3, 4})),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ListOverlap(MakeList({1}), MakeList({1})), 1.0);
  EXPECT_DOUBLE_EQ(ListOverlap(MakeList({1}), MakeList({2})), 0.0);
}

TEST(ListOverlapTest, EmptyLists) {
  EXPECT_DOUBLE_EQ(ListOverlap({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(ListOverlap(MakeList({1}), {}), 0.0);
}

TEST(ListOverlapTest, DifferentLengthsUseMax) {
  EXPECT_DOUBLE_EQ(ListOverlap(MakeList({1, 2}), MakeList({1, 2, 3, 4})),
                   0.5);
}

TEST(MeanListOverlapTest, AveragesPairwise) {
  std::vector<core::RecommendationList> a = {MakeList({1, 2}), MakeList({3})};
  std::vector<core::RecommendationList> b = {MakeList({1, 2}), MakeList({4})};
  EXPECT_DOUBLE_EQ(MeanListOverlap(a, b), 0.5);  // (1.0 + 0.0) / 2
}

TEST(GoalCompletenessTest, BestImplementationWins) {
  model::ImplementationLibrary lib = PaperLibrary();
  // g1 has one implementation {a1,a2,a3}; performing {a1,a2} gives 2/3.
  EXPECT_NEAR(GoalCompleteness(lib, G(1), {A(1), A(2)}), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(GoalCompleteness(lib, G(1), {A(1), A(2), A(3)}), 1.0);
  EXPECT_DOUBLE_EQ(GoalCompleteness(lib, G(1), {A(6)}), 0.0);
}

TEST(GoalCompletenessTest, MaxOverAlternativeImplementations) {
  model::LibraryBuilder builder;
  builder.AddImplementation("g", {"x", "y", "z"});
  builder.AddImplementation("g", {"x"});
  model::ImplementationLibrary lib = std::move(builder).Build();
  model::ActionId x = *lib.actions().Find("x");
  // The one-action alternative is fully complete.
  EXPECT_DOUBLE_EQ(GoalCompleteness(lib, 0, {x}), 1.0);
}

TEST(CompletenessAfterListTest, ListImprovesCompleteness) {
  model::ImplementationLibrary lib = PaperLibrary();
  model::Activity h = {A(2), A(3)};
  // Without recommendations g1 is 2/3 complete; recommending a1 fulfils it.
  util::Summary before = CompletenessAfterList(lib, {G(1)}, h, {});
  util::Summary after =
      CompletenessAfterList(lib, {G(1)}, h, MakeList({A(1)}));
  EXPECT_NEAR(before.avg, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(after.avg, 1.0);
}

TEST(CompletenessAfterListTest, SummaryOverMultipleGoals) {
  model::ImplementationLibrary lib = PaperLibrary();
  model::Activity h = {A(2), A(3)};
  util::Summary summary =
      CompletenessAfterList(lib, {G(1), G(4)}, h, MakeList({A(1)}));
  // g1 complete (1.0); g4 = |{a2}| / |{a2,a6}| = 0.5.
  EXPECT_DOUBLE_EQ(summary.max, 1.0);
  EXPECT_DOUBLE_EQ(summary.min, 0.5);
  EXPECT_DOUBLE_EQ(summary.avg, 0.75);
}

TEST(TruePositiveRateTest, CountsHits) {
  EXPECT_DOUBLE_EQ(TruePositiveRate(MakeList({1, 2, 3, 4}), {2, 4, 9}), 0.5);
  EXPECT_DOUBLE_EQ(TruePositiveRate(MakeList({1}), {}), 0.0);
  EXPECT_DOUBLE_EQ(TruePositiveRate({}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(TruePositiveRate(MakeList({1, 2}), {1, 2}), 1.0);
}

TEST(PairwiseFeatureSimilarityTest, SummaryOverPairs) {
  model::ActionFeatureTable table;
  table.num_features = 2;
  table.features = {{0}, {0}, {1}};
  util::Summary summary =
      PairwiseFeatureSimilarity(table, MakeList({0, 1, 2}));
  // Pairs: (0,1)=1, (0,2)=0, (1,2)=0.
  EXPECT_EQ(summary.count, 3u);
  EXPECT_DOUBLE_EQ(summary.max, 1.0);
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
  EXPECT_NEAR(summary.avg, 1.0 / 3.0, 1e-12);
}

TEST(PairwiseFeatureSimilarityTest, TooShortListGivesEmptySummary) {
  model::ActionFeatureTable table;
  table.num_features = 1;
  table.features = {{0}};
  EXPECT_EQ(PairwiseFeatureSimilarity(table, MakeList({0})).count, 0u);
}

TEST(PopularityCorrelationTest, PopularityEchoGivesPositiveCorrelation) {
  // Activities where action 0 is most popular, and lists that echo
  // popularity exactly.
  std::vector<model::Activity> activities = {{0, 1}, {0, 1}, {0}, {0, 2}};
  std::vector<core::RecommendationList> echo = {
      MakeList({0, 1}), MakeList({0, 1}), MakeList({0}), MakeList({0, 2})};
  EXPECT_GT(PopularityCorrelation(activities, echo), 0.9);
}

TEST(PopularityCorrelationTest, AntiPopularListsGiveNegativeCorrelation) {
  std::vector<model::Activity> activities = {{0, 1}, {0, 1}, {0}, {0, 2}};
  // Lists recommending only the least popular actions.
  std::vector<core::RecommendationList> anti = {
      MakeList({2}), MakeList({2}), MakeList({2}), MakeList({1})};
  EXPECT_LT(PopularityCorrelation(activities, anti), 0.0);
}

TEST(PopularityCorrelationTest, DegenerateInputsGiveZero) {
  EXPECT_DOUBLE_EQ(PopularityCorrelation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(PopularityCorrelation({{0}}, {MakeList({0})}), 0.0);
}

TEST(RecListFrequencyTest, CountsListMembership) {
  util::Histogram histogram(5);
  // Action 7 in 2/2 lists (freq 1.0); action 8 in 1/2 (freq 0.5).
  std::vector<core::RecommendationList> lists = {MakeList({7, 8}),
                                                 MakeList({7})};
  AddRecListFrequencies(lists, histogram);
  EXPECT_EQ(histogram.total(), 2u);
  EXPECT_EQ(histogram.bucket_count(4), 1u);  // freq 1.0
  EXPECT_EQ(histogram.bucket_count(2), 1u);  // freq 0.5
}

TEST(ImplSetFrequencyTest, UsesLibraryPostings) {
  model::ImplementationLibrary lib = PaperLibrary();
  util::Histogram histogram(5);
  // a1 occurs in 4/5 implementations (0.8); a4 in 1/5 (0.2).
  AddImplSetFrequencies(lib, {MakeList({A(1), A(4)})}, histogram);
  EXPECT_EQ(histogram.total(), 2u);
  EXPECT_EQ(histogram.bucket_count(4), 1u);  // 0.8
  EXPECT_EQ(histogram.bucket_count(1), 1u);  // 0.2
}

TEST(ImplSetFrequencyTest, DistinctActionsCountedOnce) {
  model::ImplementationLibrary lib = PaperLibrary();
  util::Histogram histogram(5);
  AddImplSetFrequencies(
      lib, {MakeList({A(1)}), MakeList({A(1)}), MakeList({A(1)})}, histogram);
  EXPECT_EQ(histogram.total(), 1u);
}

}  // namespace
}  // namespace goalrec::eval
