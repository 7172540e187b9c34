// Invariants of the wrapper layers — Hybrid and RecommendationSession — on
// random libraries: they must inherit the base guarantees (no performed
// actions, no duplicates, determinism, k-respect) whatever the data.

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/breadth.h"
#include "core/hybrid.h"
#include "core/session.h"
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
struct WrapperParams {
  uint32_t num_actions;
  uint32_t num_goals;
  uint32_t num_impls;
  uint32_t unused = 0;  // fills what would be padding before `seed`
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<WrapperParams>);

class WrapperPropertyTest : public ::testing::TestWithParam<WrapperParams> {
 protected:
  void SetUp() override {
    const WrapperParams& p = GetParam();
    library_ = RandomLibrary(p.num_actions, p.num_goals, p.num_impls, 6,
                             p.seed);
    features_.num_features = 6;
    features_.features.resize(p.num_actions);
    for (uint32_t a = 0; a < p.num_actions; ++a) {
      features_.features[a] = {a % 6};
    }
    breadth_ = std::make_unique<BreadthRecommender>(&library_);
    HybridOptions hybrid_options;
    hybrid_options.alpha = 0.4;
    hybrid_ = std::make_unique<HybridRecommender>(breadth_.get(), &features_,
                                                  hybrid_options);
  }

  model::ImplementationLibrary library_;
  model::ActionFeatureTable features_;
  std::unique_ptr<BreadthRecommender> breadth_;
  std::unique_ptr<HybridRecommender> hybrid_;
};

TEST_P(WrapperPropertyTest, WrappersNeverRecommendPerformedActions) {
  util::Rng rng(GetParam().seed + 1);
  for (int trial = 0; trial < 15; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       1 + rng.UniformUint32(6), rng);
    for (const ScoredAction& entry : hybrid_->Recommend(h, 10)) {
      EXPECT_FALSE(util::Contains(h, entry.action));
    }
  }
}

TEST_P(WrapperPropertyTest, WrappersProduceNoDuplicates) {
  util::Rng rng(GetParam().seed + 2);
  for (int trial = 0; trial < 15; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       1 + rng.UniformUint32(6), rng);
    std::vector<model::ActionId> actions =
        ActionsOf(hybrid_->Recommend(h, 15));
    std::sort(actions.begin(), actions.end());
    EXPECT_TRUE(std::adjacent_find(actions.begin(), actions.end()) ==
                actions.end());
  }
}

TEST_P(WrapperPropertyTest, WrappersAreDeterministic) {
  util::Rng rng(GetParam().seed + 3);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       1 + rng.UniformUint32(6), rng);
    EXPECT_EQ(hybrid_->Recommend(h, 10), hybrid_->Recommend(h, 10));
  }
}

TEST_P(WrapperPropertyTest, WrappersDrawFromBasePool) {
  util::Rng rng(GetParam().seed + 4);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       1 + rng.UniformUint32(6), rng);
    // The pool requested by the wrapper (pool_factor 3) bounds its output
    // universe.
    std::vector<model::ActionId> pool =
        ActionsOf(breadth_->Recommend(h, 30));
    std::sort(pool.begin(), pool.end());
    for (const ScoredAction& entry : hybrid_->Recommend(h, 10)) {
      EXPECT_TRUE(std::binary_search(pool.begin(), pool.end(), entry.action));
    }
  }
}

// k = SIZE_MAX makes the pool request pool_factor · k exceed SIZE_MAX; it
// must saturate (converting that double to size_t is undefined) and answer
// like any k above the candidate count, through both entry points.
TEST_P(WrapperPropertyTest, HugeKSaturatesThePool) {
  util::Rng rng(GetParam().seed + 7);
  for (int trial = 0; trial < 5; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       1 + rng.UniformUint32(6), rng);
    RecommendationList want = hybrid_->Recommend(h, GetParam().num_actions);
    EXPECT_EQ(hybrid_->Recommend(h, SIZE_MAX), want);
    RecommendationList pooled;
    hybrid_->RecommendPooled(h, SIZE_MAX, nullptr, nullptr, pooled);
    EXPECT_EQ(pooled, want);
  }
}

TEST_P(WrapperPropertyTest, SessionTracksBatchRecommendations) {
  util::Rng rng(GetParam().seed + 5);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       1 + rng.UniformUint32(8), rng);
    RecommendationSession session(&library_, breadth_.get());
    // Perform in shuffled order; the session must converge to the batch
    // result regardless of insertion order.
    std::vector<model::ActionId> order(h.begin(), h.end());
    rng.Shuffle(order);
    for (model::ActionId a : order) session.Perform(a);
    EXPECT_EQ(session.activity(), h);
    EXPECT_EQ(session.ImplementationSpace(),
              library_.ImplementationSpace(h));
    EXPECT_EQ(session.Recommend(10), breadth_->Recommend(h, 10));
  }
}

TEST_P(WrapperPropertyTest, SessionUndoMatchesFreshSession) {
  util::Rng rng(GetParam().seed + 6);
  for (int trial = 0; trial < 10; ++trial) {
    model::Activity h = RandomActivity(GetParam().num_actions,
                                       2 + rng.UniformUint32(6), rng);
    RecommendationSession session(&library_, breadth_.get());
    for (model::ActionId a : h) session.Perform(a);
    model::ActionId removed = h[rng.UniformUint32(
        static_cast<uint32_t>(h.size()))];
    session.Undo(removed);
    model::Activity expected = util::Difference(h, model::IdSet{removed});
    EXPECT_EQ(session.activity(), expected);
    EXPECT_EQ(session.ImplementationSpace(),
              library_.ImplementationSpace(expected));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomLibraries, WrapperPropertyTest,
    ::testing::Values(WrapperParams{20, 8, 80, 0, 700},
                      WrapperParams{50, 20, 300, 0, 701},
                      WrapperParams{35, 12, 150, 0, 702}));

}  // namespace
}  // namespace goalrec::core
