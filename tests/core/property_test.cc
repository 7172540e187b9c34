// Cross-strategy invariants on randomly generated libraries. These are the
// properties the paper's algorithms must satisfy regardless of data:
// Algorithm 2's single-pass accumulation equals the Eq. 6 definition, no
// strategy recommends performed actions, candidates stay inside AS(H) − H,
// rankings are deterministic and k-prefix-consistent.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include <span>
#include <type_traits>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "testing/fixtures.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace goalrec::core {
namespace {

using goalrec::testing::RandomActivity;
using goalrec::testing::RandomLibrary;

// gtest prints a parameter that has no PrintTo as its object bytes, and
// ctest names each instance by that dump, so the struct must have no
// padding: indeterminate padding bytes name the same test differently in
// every build tree.
struct PropertyParams {
  uint32_t num_actions;
  uint32_t num_goals;
  uint32_t num_impls;
  uint32_t max_size;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<PropertyParams>);

class StrategyPropertyTest : public ::testing::TestWithParam<PropertyParams> {
 protected:
  void SetUp() override {
    const PropertyParams& p = GetParam();
    library_ = RandomLibrary(p.num_actions, p.num_goals, p.num_impls,
                             p.max_size, p.seed);
    strategies_.push_back(std::make_unique<FocusRecommender>(
        &library_, FocusVariant::kCompleteness));
    strategies_.push_back(std::make_unique<FocusRecommender>(
        &library_, FocusVariant::kCloseness));
    strategies_.push_back(std::make_unique<BreadthRecommender>(&library_));
    strategies_.push_back(std::make_unique<BestMatchRecommender>(&library_));
  }

  model::Activity NextActivity(util::Rng& rng) const {
    return RandomActivity(GetParam().num_actions, 1 + rng.UniformUint32(6),
                          rng);
  }

  model::ImplementationLibrary library_;
  std::vector<std::unique_ptr<Recommender>> strategies_;
};

TEST_P(StrategyPropertyTest, BreadthAccumulationMatchesEquation6) {
  BreadthRecommender breadth(&library_);
  util::Rng rng(GetParam().seed + 10);
  for (int trial = 0; trial < 25; ++trial) {
    model::Activity h = NextActivity(rng);
    RecommendationList list =
        breadth.Recommend(h, library_.num_actions());
    for (const ScoredAction& entry : list) {
      EXPECT_DOUBLE_EQ(entry.score, breadth.Score(entry.action, h))
          << "action " << entry.action;
    }
    // Every candidate with a positive Eq. 6 score must be present when k is
    // unbounded.
    model::IdSet candidates = library_.CandidateActions(h);
    size_t positive = 0;
    for (model::ActionId a : candidates) {
      if (breadth.Score(a, h) > 0.0) ++positive;
    }
    EXPECT_EQ(list.size(), positive);
  }
}

TEST_P(StrategyPropertyTest, NoStrategyRecommendsPerformedActions) {
  util::Rng rng(GetParam().seed + 11);
  for (int trial = 0; trial < 15; ++trial) {
    model::Activity h = NextActivity(rng);
    for (const auto& strategy : strategies_) {
      for (const ScoredAction& entry : strategy->Recommend(h, 10)) {
        EXPECT_FALSE(util::Contains(h, entry.action))
            << strategy->name() << " recommended a performed action";
      }
    }
  }
}

TEST_P(StrategyPropertyTest, RecommendationsStayInsideCandidateSet) {
  util::Rng rng(GetParam().seed + 12);
  for (int trial = 0; trial < 15; ++trial) {
    model::Activity h = NextActivity(rng);
    model::IdSet candidates = library_.CandidateActions(h);
    for (const auto& strategy : strategies_) {
      for (const ScoredAction& entry :
           strategy->Recommend(h, library_.num_actions())) {
        EXPECT_TRUE(util::Contains(candidates, entry.action))
            << strategy->name() << " escaped AS(H) − H";
      }
    }
  }
}

TEST_P(StrategyPropertyTest, ListsContainNoDuplicates) {
  util::Rng rng(GetParam().seed + 13);
  for (int trial = 0; trial < 15; ++trial) {
    model::Activity h = NextActivity(rng);
    for (const auto& strategy : strategies_) {
      std::vector<model::ActionId> actions =
          ActionsOf(strategy->Recommend(h, 20));
      std::sort(actions.begin(), actions.end());
      EXPECT_TRUE(std::adjacent_find(actions.begin(), actions.end()) ==
                  actions.end())
          << strategy->name() << " produced duplicates";
    }
  }
}

TEST_P(StrategyPropertyTest, DeterministicAcrossInstances) {
  const PropertyParams& p = GetParam();
  model::ImplementationLibrary other = RandomLibrary(
      p.num_actions, p.num_goals, p.num_impls, p.max_size, p.seed);
  std::vector<std::unique_ptr<Recommender>> fresh;
  fresh.push_back(std::make_unique<FocusRecommender>(
      &other, FocusVariant::kCompleteness));
  fresh.push_back(
      std::make_unique<FocusRecommender>(&other, FocusVariant::kCloseness));
  fresh.push_back(std::make_unique<BreadthRecommender>(&other));
  fresh.push_back(std::make_unique<BestMatchRecommender>(&other));

  util::Rng rng(p.seed + 14);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = NextActivity(rng);
    for (size_t s = 0; s < strategies_.size(); ++s) {
      EXPECT_EQ(strategies_[s]->Recommend(h, 10), fresh[s]->Recommend(h, 10))
          << strategies_[s]->name();
    }
  }
}

TEST_P(StrategyPropertyTest, SmallerKIsPrefixOfLargerK) {
  util::Rng rng(GetParam().seed + 15);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = NextActivity(rng);
    for (const auto& strategy : strategies_) {
      RecommendationList small = strategy->Recommend(h, 3);
      RecommendationList large = strategy->Recommend(h, 12);
      ASSERT_LE(small.size(), large.size());
      for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(small[i], large[i]) << strategy->name();
      }
    }
  }
}

TEST_P(StrategyPropertyTest, ScoresAreMonotonicallyNonIncreasing) {
  util::Rng rng(GetParam().seed + 16);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = NextActivity(rng);
    // Focus interleaves implementations, so only Breadth and BestMatch
    // guarantee per-action score monotonicity.
    for (size_t s = 2; s < strategies_.size(); ++s) {
      RecommendationList list = strategies_[s]->Recommend(h, 20);
      for (size_t i = 1; i < list.size(); ++i) {
        EXPECT_GE(list[i - 1].score, list[i].score)
            << strategies_[s]->name();
      }
    }
  }
}

TEST_P(StrategyPropertyTest, FocusEmitsActionsOfItsRankedImplementations) {
  FocusRecommender focus(&library_, FocusVariant::kCompleteness);
  util::Rng rng(GetParam().seed + 17);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = NextActivity(rng);
    std::vector<RankedImplementation> ranked = focus.RankImplementations(h);
    if (ranked.empty()) continue;
    RecommendationList list = focus.Recommend(h, 5);
    ASSERT_FALSE(list.empty());
    // The first recommendation is a missing action of the best
    // implementation.
    std::span<const model::ActionId> best_actions =
        library_.ActionsOf(ranked[0].impl);
    EXPECT_TRUE(util::Contains(best_actions, list[0].action));
    EXPECT_DOUBLE_EQ(list[0].score, ranked[0].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomLibraries, StrategyPropertyTest,
    ::testing::Values(PropertyParams{12, 5, 30, 4, 100},
                      PropertyParams{25, 8, 120, 5, 101},
                      PropertyParams{40, 15, 300, 6, 102},
                      PropertyParams{60, 25, 500, 8, 103},
                      PropertyParams{10, 3, 60, 3, 104},
                      PropertyParams{80, 40, 200, 10, 105}));

}  // namespace
}  // namespace goalrec::core
