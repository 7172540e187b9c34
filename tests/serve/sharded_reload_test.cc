// Swap-under-query for the serving ladder: query threads hammer a
// snapshot-mode ServingEngine whose ladder is built by
// MakeShardedLadderFactory while a reloader alternates the published
// library between two builds. At 3 shards every reload re-partitions the new
// library, so the test proves the whole shard set swaps atomically with the
// snapshot — a query answers from the old complete shard set or the new one,
// never a mix — and that the fan-out pool, the warm scratch pool and the
// publish protocol are race-free. At 1 shard (the default deployment) the
// same race runs over the plain kernels. Both run in the TSan tree.
// Deterministic: fixed seeds, no sleeps.

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/recommender.h"
#include "model/library.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "testing/fixtures.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace goalrec::serve {
namespace {

constexpr uint32_t kNumActions = 12;
constexpr size_t kQueryThreads = 4;
constexpr int kQueriesPerThread = 300;
constexpr int kReloads = 150;
constexpr size_t kK = 6;

bool SameList(const core::RecommendationList& got,
              const core::RecommendationList& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].action != want[i].action) return false;
    if (got[i].score != want[i].score) return false;
  }
  return true;
}

void RunSwapUnderQueries(uint32_t num_shards) {
  auto lib_a = model::MakeSnapshot(
      testing::RandomLibrary(kNumActions, 5, 24, 5, /*seed=*/111), "A");
  auto lib_b = model::MakeSnapshot(
      testing::RandomLibrary(kNumActions, 5, 24, 5, /*seed=*/222), "B");
  const model::Activity activity{0, 1};

  // Ground truth is the UNSHARDED kernel: the sharded rung must reproduce
  // it bit for bit (the oracle wall holds it to that; here it doubles as
  // the torn-read detector).
  core::RecommendationList want_a =
      core::BestMatchRecommender(&lib_a->library).Recommend(activity, kK);
  core::RecommendationList want_b =
      core::BestMatchRecommender(&lib_b->library).Recommend(activity, kK);
  ASSERT_FALSE(SameList(want_a, want_b))
      << "probe activity cannot distinguish the two libraries";

  obs::MetricRegistry metrics;
  util::ThreadPool fanout_pool(3);
  ShardedLadderOptions ladder;
  ladder.num_shards = num_shards;
  ladder.pool = &fanout_pool;
  ladder.metrics = &metrics;
  SnapshotManager manager(lib_a, MakeShardedLadderFactory(ladder), &metrics);

  // Per-shard gauges ride the scrape-hook path; exercised concurrently with
  // the swaps below and checked at the end.
  ShardStatsExporter exporter(
      &metrics, [&]() { return manager.Acquire()->sharded; });

  EngineOptions options;
  options.metrics = &metrics;
  ServingEngine engine(&manager, options);

  std::vector<std::thread> queriers;
  std::vector<int> failures(kQueryThreads, 0);
  std::vector<int64_t> served(kQueryThreads, 0);
  for (size_t t = 0; t < kQueryThreads; ++t) {
    queriers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        util::StatusOr<ServeResult> result = engine.Serve(activity, kK);
        if (!result.ok()) {
          ++failures[t];
          continue;
        }
        const ServeResult& r = result.value();
        bool consistent =
            (r.library_version == lib_a->version && SameList(r.list, want_a)) ||
            (r.library_version == lib_b->version && SameList(r.list, want_b));
        if (!consistent) ++failures[t];
        ++served[t];
      }
    });
  }
  std::thread reloader([&] {
    for (int i = 0; i < kReloads; ++i) {
      ASSERT_TRUE(manager.Reload(i % 2 == 0 ? lib_b : lib_a).ok());
    }
  });
  // A scraper thread drives the shard gauges while snapshots swap under it.
  std::thread scraper([&] {
    for (int i = 0; i < 50; ++i) (void)metrics.Snapshot();
  });
  for (auto& t : queriers) t.join();
  reloader.join();
  scraper.join();

  for (size_t t = 0; t < kQueryThreads; ++t) {
    EXPECT_EQ(failures[t], 0)
        << "thread " << t << " observed a torn or mis-versioned answer";
    EXPECT_EQ(served[t], kQueriesPerThread);
  }
  EXPECT_EQ(manager.reload_count(), static_cast<uint64_t>(kReloads));

  // Final scrape: shard gauges reflect the currently served partition. An
  // unsharded ladder publishes neither the gauges nor merge latencies.
  auto sharded = manager.Acquire()->sharded;
  obs::RegistrySnapshot snap = metrics.Snapshot();
  const obs::MetricSnapshot* count = snap.Find("goalrec_shard_count");
  const obs::MetricSnapshot* merge =
      snap.Find("goalrec_shard_merge_latency_us");
  if (num_shards == 1) {
    EXPECT_EQ(sharded, nullptr);
    EXPECT_EQ(count, nullptr);
    EXPECT_EQ(merge, nullptr);
    return;
  }
  ASSERT_NE(sharded, nullptr);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, num_shards);
  int64_t impls = 0;
  for (uint32_t s = 0; s < sharded->num_shards; ++s) {
    const obs::MetricSnapshot* per_shard =
        snap.Find("goalrec_shard_impls", {{"shard", std::to_string(s)}});
    ASSERT_NE(per_shard, nullptr) << "shard " << s;
    EXPECT_EQ(per_shard->value,
              sharded->shard_library(s).num_implementations());
    impls += per_shard->value;
  }
  EXPECT_EQ(impls, manager.Acquire()->library->library.num_implementations());

  // The sharded rungs observed their merges.
  ASSERT_NE(merge, nullptr);
  EXPECT_GT(merge->histogram.count, 0u);
}

TEST(ShardedReloadTest, ShardSetSwapsAtomicallyUnderQueries) {
  RunSwapUnderQueries(3);
}

TEST(ShardedReloadTest, OneShardLadderSwapsAtomicallyUnderQueries) {
  RunSwapUnderQueries(1);
}

// Reload guard still protects the sharded ladder: a candidate whose canary
// cannot resolve is rejected, and the serving shard set is untouched.
TEST(ShardedReloadTest, GuardRejectionKeepsServingShardSet) {
  auto lib_a = model::MakeSnapshot(
      testing::RandomLibrary(kNumActions, 5, 24, 5, /*seed=*/333), "A");
  // A disjoint vocabulary: lib_a's canary names cannot resolve against it.
  model::LibraryBuilder other;
  other.AddImplementation("other_goal", {"x0", "x1", "x2"});
  auto lib_other = model::MakeSnapshot(std::move(other).Build(), "other");

  obs::MetricRegistry metrics;
  ShardedLadderOptions ladder;
  ladder.num_shards = 2;
  ladder.metrics = &metrics;
  ReloadGuardOptions guard;
  guard.canary_probes = {
      {lib_a->library.actions().Name(0), lib_a->library.actions().Name(1)}};
  SnapshotManager manager(lib_a, MakeShardedLadderFactory(ladder), guard,
                          &metrics);
  auto before = manager.Acquire();
  ASSERT_NE(before->sharded, nullptr);

  EXPECT_FALSE(manager.Reload(lib_other).ok());
  auto after = manager.Acquire();
  EXPECT_EQ(after.get(), before.get()) << "rejected candidate was published";
  EXPECT_EQ(after->sharded.get(), before->sharded.get());
  EXPECT_EQ(manager.consecutive_failures(), 1u);
}

}  // namespace
}  // namespace goalrec::serve
