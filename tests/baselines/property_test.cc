// Cross-baseline invariants, mirroring the core strategy property suite:
// every baseline must be deterministic, k-prefix-consistent, never recommend
// performed actions, and never produce duplicates — on randomly generated
// interaction data.

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/als.h"
#include "baselines/content_based.h"
#include "baselines/knn.h"
#include "baselines/popularity.h"
#include "testing/fixtures.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace goalrec::baselines {
namespace {

using goalrec::testing::RandomActivity;

// gtest prints a parameter that has no PrintTo as its object bytes, and
// ctest names each instance by that dump, so the struct must have no
// padding: indeterminate padding bytes name the same test differently in
// every build tree.
struct BaselineParams {
  uint32_t num_actions;
  uint32_t num_users;
  uint32_t max_activity;
  uint32_t unused = 0;  // fills what would be padding before `seed`
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<BaselineParams>);

class BaselinePropertyTest : public ::testing::TestWithParam<BaselineParams> {
 protected:
  void SetUp() override {
    const BaselineParams& p = GetParam();
    util::Rng rng(p.seed);
    std::vector<model::Activity> activities;
    for (uint32_t u = 0; u < p.num_users; ++u) {
      activities.push_back(RandomActivity(
          p.num_actions, 1 + rng.UniformUint32(p.max_activity), rng));
    }
    data_ = std::make_unique<InteractionData>(activities, p.num_actions);

    features_.num_features = 8;
    features_.features.resize(p.num_actions);
    for (uint32_t a = 0; a < p.num_actions; ++a) {
      features_.features[a] = {a % 8};
    }

    AlsOptions als;
    als.num_factors = 4;
    als.num_iterations = 2;
    recommenders_.push_back(std::make_unique<KnnRecommender>(data_.get()));
    recommenders_.push_back(
        std::make_unique<AlsRecommender>(data_.get(), als));
    recommenders_.push_back(
        std::make_unique<ContentRecommender>(&features_));
    recommenders_.push_back(
        std::make_unique<PopularityRecommender>(data_.get()));
  }

  std::unique_ptr<InteractionData> data_;
  model::ActionFeatureTable features_;
  std::vector<std::unique_ptr<core::Recommender>> recommenders_;
};

TEST_P(BaselinePropertyTest, NeverRecommendsPerformedActions) {
  util::Rng rng(GetParam().seed + 1);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h =
        RandomActivity(GetParam().num_actions, 1 + rng.UniformUint32(5), rng);
    for (const auto& rec : recommenders_) {
      for (const core::ScoredAction& entry : rec->Recommend(h, 10)) {
        EXPECT_FALSE(util::Contains(h, entry.action)) << rec->name();
      }
    }
  }
}

TEST_P(BaselinePropertyTest, NoDuplicatesInLists) {
  util::Rng rng(GetParam().seed + 2);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h =
        RandomActivity(GetParam().num_actions, 1 + rng.UniformUint32(5), rng);
    for (const auto& rec : recommenders_) {
      std::vector<model::ActionId> actions =
          core::ActionsOf(rec->Recommend(h, 20));
      std::sort(actions.begin(), actions.end());
      EXPECT_TRUE(std::adjacent_find(actions.begin(), actions.end()) ==
                  actions.end())
          << rec->name();
    }
  }
}

TEST_P(BaselinePropertyTest, DeterministicRepeatCalls) {
  util::Rng rng(GetParam().seed + 3);
  for (int trial = 0; trial < 5; ++trial) {
    model::Activity h =
        RandomActivity(GetParam().num_actions, 1 + rng.UniformUint32(5), rng);
    for (const auto& rec : recommenders_) {
      EXPECT_EQ(rec->Recommend(h, 10), rec->Recommend(h, 10))
          << rec->name();
    }
  }
}

TEST_P(BaselinePropertyTest, SmallerKIsPrefixOfLargerK) {
  util::Rng rng(GetParam().seed + 4);
  for (int trial = 0; trial < 5; ++trial) {
    model::Activity h =
        RandomActivity(GetParam().num_actions, 1 + rng.UniformUint32(5), rng);
    for (const auto& rec : recommenders_) {
      core::RecommendationList small = rec->Recommend(h, 3);
      core::RecommendationList large = rec->Recommend(h, 12);
      ASSERT_LE(small.size(), large.size()) << rec->name();
      for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(small[i], large[i]) << rec->name();
      }
    }
  }
}

TEST_P(BaselinePropertyTest, ScoresNonIncreasing) {
  util::Rng rng(GetParam().seed + 5);
  for (int trial = 0; trial < 5; ++trial) {
    model::Activity h =
        RandomActivity(GetParam().num_actions, 1 + rng.UniformUint32(5), rng);
    for (const auto& rec : recommenders_) {
      core::RecommendationList list = rec->Recommend(h, 15);
      for (size_t i = 1; i < list.size(); ++i) {
        EXPECT_GE(list[i - 1].score, list[i].score) << rec->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInteractions, BaselinePropertyTest,
    ::testing::Values(BaselineParams{15, 30, 6, 0, 500},
                      BaselineParams{40, 80, 8, 0, 501},
                      BaselineParams{25, 50, 4, 0, 502},
                      BaselineParams{60, 40, 10, 0, 503}));

}  // namespace
}  // namespace goalrec::baselines
