// MakeShardedLadderFactory is the one serving ladder factory. At one shard
// it must build the plain core kernels over the served library — no
// ShardedSnapshot, no ShardedRecommender — and at more it must build the
// fan-out. Both ladders answer every generated case bit for bit alike, for
// all four strategies.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "model/snapshot.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "testing/generator.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace goalrec::serve {
namespace {

constexpr int kCases = 200;

ShardedLadderOptions AllStrategies(uint32_t num_shards,
                                   util::ThreadPool* pool,
                                   obs::MetricRegistry* metrics) {
  ShardedLadderOptions options;
  options.num_shards = num_shards;
  options.pool = pool;
  options.metrics = metrics;
  options.rungs = core::AllStrategies();
  return options;
}

TEST(ShardedLadderFactoryTest, DefaultsToOneShard) {
  EXPECT_EQ(ShardedLadderOptions{}.num_shards, 1u);
}

TEST(ShardedLadderFactoryTest, OneShardBuildsTheCoreKernels) {
  auto snapshot = model::MakeSnapshot(
      testing::GenerateCase(testing::DefaultCaseShapes()[0], 7).library);
  obs::MetricRegistry metrics;
  ServingSnapshot ladder;
  ladder.library = snapshot;
  MakeShardedLadderFactory(AllStrategies(1, nullptr, &metrics))(
      snapshot->library, ladder);

  EXPECT_EQ(ladder.sharded, nullptr);
  ASSERT_EQ(ladder.rungs.size(), 5u);
  const core::Recommender* focus_cmp = ladder.rungs[0].recommender;
  const core::Recommender* focus_cl = ladder.rungs[1].recommender;
  ASSERT_NE(dynamic_cast<const core::FocusRecommender*>(focus_cmp), nullptr);
  ASSERT_NE(dynamic_cast<const core::FocusRecommender*>(focus_cl), nullptr);
  EXPECT_EQ(focus_cmp->name(), "Focus_cmp");
  EXPECT_EQ(focus_cl->name(), "Focus_cl");
  EXPECT_NE(dynamic_cast<const core::BreadthRecommender*>(
                ladder.rungs[2].recommender),
            nullptr);
  EXPECT_NE(dynamic_cast<const core::BestMatchRecommender*>(
                ladder.rungs[3].recommender),
            nullptr);
  // Rung names are the strategies' keys; metric labels such as
  // serve.served_by.best_match are built from them.
  const char* const kRungNames[] = {"focus_cmp", "focus_cl", "breadth",
                                    "best_match", "popularity"};
  for (size_t r = 0; r < ladder.rungs.size(); ++r) {
    EXPECT_EQ(ladder.rungs[r].name, kRungNames[r]);
  }
  for (const ServingEngine::Rung& rung : ladder.rungs) {
    EXPECT_EQ(dynamic_cast<const ShardedRecommender*>(rung.recommender),
              nullptr)
        << rung.name;
  }
  // No fan-out, so no merge histogram either.
  EXPECT_EQ(metrics.Snapshot().Find("goalrec_shard_merge_latency_us"),
            nullptr);
}

TEST(ShardedLadderFactoryTest, OneShardAnswersBitIdenticalToThreeShards) {
  std::vector<testing::CaseShape> shapes = testing::DefaultCaseShapes();
  util::Rng seeds(20261018);
  util::ThreadPool pool(2);
  obs::MetricRegistry metrics;
  auto one = MakeShardedLadderFactory(AllStrategies(1, nullptr, &metrics));
  auto three = MakeShardedLadderFactory(AllStrategies(3, &pool, &metrics));
  core::QueryWorkspace one_ws;
  core::QueryWorkspace three_ws;
  for (int i = 0; i < kCases; ++i) {
    const uint64_t case_seed = seeds.NextUint64();
    testing::OracleCase c = testing::GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    ServingSnapshot unsharded;
    ServingSnapshot sharded;
    one(snapshot->library, unsharded);
    three(snapshot->library, sharded);
    ASSERT_EQ(unsharded.sharded, nullptr);
    ASSERT_NE(sharded.sharded, nullptr);
    ASSERT_EQ(sharded.sharded->num_shards, 3u);
    ASSERT_EQ(unsharded.rungs.size(), sharded.rungs.size());
    for (size_t r = 0; r < unsharded.rungs.size(); ++r) {
      ASSERT_EQ(unsharded.rungs[r].name, sharded.rungs[r].name);
      core::RecommendationList want;
      core::RecommendationList got;
      unsharded.rungs[r].recommender->RecommendPooled(
          c.activity, c.k, nullptr, &one_ws, want);
      sharded.rungs[r].recommender->RecommendPooled(c.activity, c.k, nullptr,
                                                    &three_ws, got);
      ASSERT_EQ(got, want) << unsharded.rungs[r].name << " diverged (case seed "
                           << case_seed << ", shape " << i % shapes.size()
                           << ")";
    }
  }
}

}  // namespace
}  // namespace goalrec::serve
