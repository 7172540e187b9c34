#include "baselines/knn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/best_match.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "testing/fixtures.h"
#include "util/dense_vector.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace goalrec::baselines {
namespace {

TEST(KnnTest, Name) {
  InteractionData data({{0}}, 1);
  EXPECT_EQ(KnnRecommender(&data).name(), "CF_kNN");
}

TEST(KnnTest, UserSimilarityIsTanimoto) {
  InteractionData data({{0, 1, 2}, {3}}, 4);
  KnnRecommender knn(&data);
  // |{0,1} ∩ {0,1,2}| / |{0,1} ∪ {0,1,2}| = 2/3
  EXPECT_NEAR(knn.UserSimilarity({0, 1}, 0), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(knn.UserSimilarity({0, 1}, 1), 0.0);
}

TEST(KnnTest, RecommendsWhatSimilarUsersDid) {
  // Users 0 and 1 both bought {0, 1}; user 0 also bought 2. A query of
  // {0, 1} should be recommended 2.
  InteractionData data({{0, 1, 2}, {0, 1}, {3, 4}}, 5);
  KnnRecommender knn(&data);
  core::RecommendationList list = knn.Recommend({0, 1}, 10);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list[0].action, 2u);
}

TEST(KnnTest, DoesNotRecommendQueryActions) {
  InteractionData data({{0, 1, 2}}, 3);
  KnnRecommender knn(&data);
  for (const core::ScoredAction& entry : knn.Recommend({0, 1}, 10)) {
    EXPECT_NE(entry.action, 0u);
    EXPECT_NE(entry.action, 1u);
  }
}

TEST(KnnTest, MoreSimilarNeighborsContributeMore) {
  // Neighbor 0 (sim 1.0 with query {0,1}) did action 2; neighbor 1
  // (sim 1/3) did action 3. Action 2 must outrank 3.
  InteractionData data({{0, 1, 2}, {0, 3}}, 4);
  KnnRecommender knn(&data);
  core::RecommendationList list = knn.Recommend({0, 1}, 10);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].action, 2u);
  EXPECT_EQ(list[1].action, 3u);
  EXPECT_GT(list[0].score, list[1].score);
}

TEST(KnnTest, NeighborhoodSizeLimitsInfluence) {
  // With num_neighbors = 1 only the closest user matters.
  InteractionData data({{0, 1, 2}, {0, 3}}, 4);
  KnnOptions options;
  options.num_neighbors = 1;
  KnnRecommender knn(&data, options);
  core::RecommendationList list = knn.Recommend({0, 1}, 10);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].action, 2u);
}

TEST(KnnTest, NoOverlapNoRecommendations) {
  InteractionData data({{0, 1}}, 4);
  KnnRecommender knn(&data);
  EXPECT_TRUE(knn.Recommend({2, 3}, 10).empty());
}

TEST(KnnTest, EmptyQueryGivesEmptyList) {
  InteractionData data({{0}}, 1);
  KnnRecommender knn(&data);
  EXPECT_TRUE(knn.Recommend({}, 10).empty());
}

TEST(KnnTest, RespectsK) {
  InteractionData data({{0, 1, 2, 3, 4}}, 5);
  KnnRecommender knn(&data);
  EXPECT_EQ(knn.Recommend({0}, 2).size(), 2u);
  EXPECT_TRUE(knn.Recommend({0}, 0).empty());
}

TEST(KnnTest, QueryActionsOutsideTrainingUniverseAreIgnored) {
  InteractionData data({{0, 1}}, 2);
  KnnRecommender knn(&data);
  core::RecommendationList list = knn.Recommend({0, 99}, 10);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].action, 1u);
}

TEST(KnnTest, PerpetuatesPopularity) {
  // The behaviour Table 3 quantifies: actions frequent in the community
  // dominate kNN lists. Action 5 is performed by every neighbour.
  std::vector<model::Activity> users;
  for (uint32_t u = 0; u < 10; ++u) {
    users.push_back({0, 5});  // everyone shares item 0 and popular item 5
  }
  users.push_back({0, 6});  // one user with a rare item
  InteractionData data(std::move(users), 7);
  KnnRecommender knn(&data);
  core::RecommendationList list = knn.Recommend({0}, 2);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list[0].action, 5u);
}

// The kernel against a brute-force Jaccard reference: score every training
// user, sort, keep the best `num_neighbors`, credit their actions outside H
// best neighbour first, and sort the credited actions. Sums run in the same
// neighbour order, so the comparison is bit for bit.
core::RecommendationList BruteForceKnn(const InteractionData& data,
                                       const model::Activity& activity,
                                       size_t k, const KnnOptions& options) {
  core::RecommendationList out;
  if (k == 0 || activity.empty()) return out;
  struct Neighbor {
    uint32_t user;
    double sim;
  };
  std::vector<Neighbor> neighbors;
  for (uint32_t u = 0; u < data.num_users(); ++u) {
    const model::Activity& other = data.ActionsOfUser(u);
    size_t common = util::IntersectionSize(activity, other);
    if (common == 0) continue;
    double sim = util::JaccardFromCounts(common, activity.size(), other.size());
    if (sim >= options.min_similarity) neighbors.push_back({u, sim});
  }
  std::sort(neighbors.begin(), neighbors.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.sim != b.sim) return a.sim > b.sim;
              return a.user < b.user;
            });
  if (neighbors.size() > options.num_neighbors) {
    neighbors.resize(options.num_neighbors);
  }
  std::vector<double> score(data.num_actions(), 0.0);
  std::vector<bool> credited(data.num_actions(), false);
  for (const Neighbor& n : neighbors) {
    for (model::ActionId a : data.ActionsOfUser(n.user)) {
      if (util::Contains(activity, a)) continue;
      score[a] += n.sim;
      credited[a] = true;
    }
  }
  for (model::ActionId a = 0; a < data.num_actions(); ++a) {
    if (credited[a]) out.push_back(core::ScoredAction{a, score[a]});
  }
  std::sort(out.begin(), out.end(), core::ByScoreDesc{});
  if (out.size() > k) out.resize(k);
  return out;
}

InteractionData RandomInteractions(uint32_t num_users, uint32_t num_actions,
                                   uint32_t max_size, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Activity> users;
  for (uint32_t u = 0; u < num_users; ++u) {
    users.push_back(testing::RandomActivity(
        num_actions, 1 + rng.UniformUint32(max_size), rng));
  }
  return InteractionData(std::move(users), num_actions);
}

TEST(KnnKernelTest, ReusedWorkspaceMatchesBruteForceAcrossQuerySizes) {
  KnnOptions options;
  options.num_neighbors = 7;  // well below the candidate users: ties bite
  for (uint64_t seed : {1u, 2u, 3u}) {
    InteractionData data = RandomInteractions(120, 40, 9, seed);
    KnnRecommender knn(&data, options);
    core::QueryWorkspace ws;
    util::Rng rng(seed + 100);
    for (int q = 0; q < 40; ++q) {
      // Sizes cycle from 1 to 25 so each query sees stale, larger passes.
      uint32_t size = 1 + static_cast<uint32_t>((q * 7) % 25);
      model::Activity h = testing::RandomActivity(40, size, rng);
      size_t k = 1 + rng.UniformUint32(12);
      core::RecommendationList want = BruteForceKnn(data, h, k, options);
      core::RecommendationList got;
      knn.RecommendPooled(h, k, nullptr, &ws, got);
      EXPECT_EQ(got, want) << "seed " << seed << " query " << q;
      EXPECT_EQ(knn.Recommend(h, k), want) << "seed " << seed << " query " << q;
    }
  }
}

TEST(KnnKernelTest, WorkspaceSharedWithGoalStrategiesBetweenCalls) {
  // The evaluation Suite runs every method on one leased workspace per
  // cart. A goal library with more actions and implementations than the
  // training data has actions and users leaves larger, differently stamped
  // passes behind between kNN calls.
  InteractionData data = RandomInteractions(90, 30, 8, 11);
  model::ImplementationLibrary library =
      testing::RandomLibrary(70, 12, 300, 6, 12);
  core::FocusRecommender focus(&library, core::FocusVariant::kCompleteness);
  core::BestMatchRecommender best_match(&library);
  KnnRecommender knn(&data);
  core::QueryWorkspace ws;
  util::Rng rng(13);
  core::RecommendationList scratch, got;
  for (int q = 0; q < 30; ++q) {
    model::Activity h = testing::RandomActivity(30, 1 + q % 10, rng);
    focus.RecommendPooled(h, 10, nullptr, &ws, scratch);
    best_match.RecommendPooled(h, 10, nullptr, &ws, scratch);
    knn.RecommendPooled(h, 10, nullptr, &ws, got);
    EXPECT_EQ(got, BruteForceKnn(data, h, 10, KnnOptions{})) << "query " << q;
    // And the goal strategies still answer as on a fresh workspace.
    focus.RecommendPooled(h, 10, nullptr, &ws, scratch);
    EXPECT_EQ(scratch, focus.Recommend(h, 10)) << "query " << q;
  }
}

TEST(KnnKernelTest, QueryActionsBeyondTheTrainingUniverse) {
  InteractionData data = RandomInteractions(60, 20, 6, 21);
  KnnRecommender knn(&data);
  core::QueryWorkspace ws;
  // Out-of-range ids never match a user but still count in |H|.
  for (model::Activity h : {model::Activity{3, 20}, model::Activity{0, 5, 99},
                            model::Activity{20, 21}}) {
    core::RecommendationList got;
    knn.RecommendPooled(h, 10, nullptr, &ws, got);
    EXPECT_EQ(got, BruteForceKnn(data, h, 10, KnnOptions{}));
  }
}

TEST(KnnKernelTest, ZeroKAndEmptyActivityClearTheOutput) {
  InteractionData data = RandomInteractions(40, 15, 5, 31);
  KnnRecommender knn(&data);
  core::QueryWorkspace ws;
  core::RecommendationList out = {core::ScoredAction{1, 1.0}};
  knn.RecommendPooled(model::Activity{0, 1, 2}, 0, nullptr, &ws, out);
  EXPECT_TRUE(out.empty());
  out = {core::ScoredAction{1, 1.0}};
  knn.RecommendPooled(model::Activity{}, 5, nullptr, &ws, out);
  EXPECT_TRUE(out.empty());
  // A null workspace runs the same kernel on a private one.
  knn.RecommendPooled(model::Activity{0, 1}, 5, nullptr, nullptr, out);
  EXPECT_EQ(out, BruteForceKnn(data, {0, 1}, 5, KnnOptions{}));
}

}  // namespace
}  // namespace goalrec::baselines
