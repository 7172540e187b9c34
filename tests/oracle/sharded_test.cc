// Differential wall for sharded serving: N-shard fan-out/merge must be
// *bit-identical* to the single-shard scan — same actions, same scores,
// same order — across the seeded generator sweep, for all four strategies
// (Best Match under all six variants), on both the pooled (warm root
// workspace + scratch pool) and allocating paths. A metamorphic sweep
// additionally pins shard-count invariance (shards ∈ {1, 2, 3, 7, 16},
// including the tie-storm shapes where only
// the documented (score desc, id asc) order distinguishes outputs), and
// the Breadth dense-reset accumulator is held to the same wall with its
// threshold forced both ways.
//
// Failures print the case seed; reproduce with goalrec_fuzz --seed=<seed>.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/query_workspace.h"
#include "model/library.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "serve/sharded.h"
#include "testing/differential.h"
#include "testing/fixtures.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "util/deadline.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace goalrec::testing {
namespace {

// 32 seeds × the 10 generator shapes = 320 cases per strategy; Best Match
// runs each under all six variants.
constexpr int kWallCasesPerStrategy = 320;
constexpr int kMetamorphicCasesPerStrategy = 90;
constexpr uint64_t kMasterSeed = 20260808;

DiffOptions Strict() {
  DiffOptions strict;
  strict.strict_order = true;
  strict.score_tolerance = 0.0;
  return strict;
}

class ShardedOracleTest : public ::testing::TestWithParam<core::Strategy> {};

// The wall: 3-shard fan-out/merge vs the naive reference AND vs the
// unsharded optimized path, pooled and allocating, strict order, zero
// tolerance.
TEST_P(ShardedOracleTest, ShardedMergeIsBitIdenticalToSingleShard) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/31);
  util::ThreadPool pool(3);
  core::QueryWorkspace root_ws;  // reused across ALL cases, like a server
  core::QueryWorkspace unsharded_ws;
  const DiffOptions strict = Strict();
  for (int i = 0; i < kWallCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/3);
    for (const core::BestMatchOptions& variant : OracleVariants(GetParam())) {
      const std::string name = OracleVariantName(GetParam(), variant);
      serve::ShardedRecommender recommender(sharded, GetParam(),
                                            &pool, variant);

      // Pooled path: warm root workspace, scratch pool, parallel fan-out.
      core::RecommendationList pooled;
      recommender.RecommendPooled(c.activity, c.k, /*stop=*/nullptr, &root_ws,
                                  pooled);
      DiffOutcome vs_reference = CompareLists(
          pooled,
          RunReference(library, GetParam(), c.activity, c.k, variant),
          strict);
      ASSERT_TRUE(vs_reference.match)
          << name << " sharded pooled vs reference: " << vs_reference.detail
          << " (case seed " << case_seed << ", shape " << i % shapes.size()
          << ", |H| = " << c.activity.size() << ", k = " << c.k << ")";

      // Allocating path: fresh workspaces, sequential fan-out.
      core::RecommendationList allocating =
          recommender.Recommend(c.activity, c.k);
      ASSERT_EQ(allocating, pooled)
          << name << " sharded allocating vs pooled diverged (case seed "
          << case_seed << ")";

      // And against the unsharded optimized kernel, bit for bit.
      core::RecommendationList unsharded = RunOptimizedPooled(
          library, GetParam(), c.activity, c.k, unsharded_ws, variant);
      ASSERT_EQ(pooled, unsharded)
          << name << " sharded vs unsharded optimized diverged (case seed "
          << case_seed << ")";
    }
  }
}

// Metamorphic shard-count invariance: the merged list must not depend on
// the shard count.
TEST_P(ShardedOracleTest, MergedResultsInvariantAcrossShardCounts) {
  const uint32_t kShardCounts[] = {1, 2, 3, 7, 16};
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/32);
  util::ThreadPool pool(3);
  core::QueryWorkspace root_ws;
  core::QueryWorkspace unsharded_ws;
  for (int i = 0; i < kMetamorphicCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    for (uint32_t num_shards : kShardCounts) {
      auto sharded = model::BuildShardedSnapshot(library, num_shards);
      for (const core::BestMatchOptions& variant :
           OracleVariants(GetParam())) {
        core::RecommendationList unsharded = RunOptimizedPooled(
            library, GetParam(), c.activity, c.k, unsharded_ws, variant);
        serve::ShardedRecommender recommender(sharded, GetParam(),
                                              &pool, variant);
        core::RecommendationList merged;
        recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws,
                                    merged);
        ASSERT_EQ(merged, unsharded)
            << OracleVariantName(GetParam(), variant) << " diverged at "
            << num_shards << " shards (case seed "
            << case_seed << ", shape " << i % shapes.size() << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ShardedOracleTest,
    ::testing::ValuesIn(core::AllStrategies()),
    [](const ::testing::TestParamInfo<core::Strategy>& info) {
      return std::string(core::StrategyName(info.param));
    });

// A stop that fires partway through every shard's goal-major scan: the
// shards' partials are half-summed, so the sharded query returns nothing,
// and the caller's token reports the stop. The same workspaces then serve
// the next query exactly.
TEST(ShardedBestMatchTest, StopMidScanReturnsEmptyWithStopRequested) {
  auto snapshot = model::MakeSnapshot(RandomLibrary(
      /*num_actions=*/40, /*num_goals=*/200, /*num_impls=*/600,
      /*max_size=*/3, /*seed=*/5));
  const model::ImplementationLibrary& library = snapshot->library;
  util::Rng rng(11);
  model::Activity activity = RandomActivity(40, 10, rng);
  auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/4);
  // Each shard task polls its own copy of the token once per goal of its
  // slice; with stride 8 and an expired deadline every copy stops at its
  // slice's goal 7.
  constexpr uint32_t kStride = 8;
  for (uint32_t s = 0; s < sharded->num_shards; ++s) {
    ASSERT_GT(sharded->shard_library(s).GoalSpace(activity).size(), kStride);
  }
  util::ThreadPool pool(3);
  serve::ShardedRecommender recommender(
      sharded, core::Strategy::kBestMatch, &pool);
  core::QueryWorkspace root_ws;
  util::StopToken stop(util::Deadline::AfterMillis(0), kStride);
  core::RecommendationList out = {{0, 1.0}};
  recommender.RecommendPooled(activity, 10, &stop, &root_ws, out);
  EXPECT_TRUE(stop.StopRequested());
  EXPECT_TRUE(out.empty());

  recommender.RecommendPooled(activity, 10, nullptr, &root_ws, out);
  EXPECT_EQ(out, core::BestMatchRecommender(&library).Recommend(activity, 10));
}

// KernelStats::slots_touched counts the scan's (action, goal) folds. The
// shards' goal slices partition GS(H), so their counts, rolled up into the
// root workspace, sum to the unsharded count.
TEST(ShardedBestMatchTest, SlotsTouchedSummedOverShardsEqualsUnsharded) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/35);
  util::ThreadPool pool(3);
  core::QueryWorkspace root_ws;
  core::QueryWorkspace unsharded_ws;
  uint64_t total = 0;
  for (int i = 0; i < 80; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    unsharded_ws.kernel_stats = {};
    RunOptimizedPooled(library, core::Strategy::kBestMatch, c.activity, c.k,
                       unsharded_ws);
    serve::ShardedRecommender recommender(
        model::BuildShardedSnapshot(library, /*num_shards=*/4),
        core::Strategy::kBestMatch, &pool);
    root_ws.kernel_stats = {};
    core::RecommendationList merged;
    recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws, merged);
    ASSERT_EQ(root_ws.kernel_stats.slots_touched,
              unsharded_ws.kernel_stats.slots_touched)
        << "case seed " << case_seed;
    total += unsharded_ws.kernel_stats.slots_touched;
  }
  EXPECT_GT(total, 0u);
}

// Restores the Breadth dense threshold even when an assertion bails out.
class ScopedDenseMultiplier {
 public:
  explicit ScopedDenseMultiplier(double multiplier)
      : previous_(core::SetBreadthDenseCreditMultiplier(multiplier)) {}
  ~ScopedDenseMultiplier() {
    core::SetBreadthDenseCreditMultiplier(previous_);
  }

 private:
  double previous_;
};

// The Breadth dense memset-reset accumulator, forced on, against the
// reference — unsharded and sharded. The workspace's dense_resets counter
// proves the dense path actually ran.
TEST(BreadthDenseResetOracleTest, ForcedDenseIsBitIdenticalToReference) {
  ScopedDenseMultiplier force_dense(0.0);
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/33);
  core::QueryWorkspace workspace;
  core::QueryWorkspace root_ws;
  const DiffOptions strict = Strict();
  for (int i = 0; i < 120; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    core::RecommendationList dense = RunOptimizedPooled(
        library, core::Strategy::kBreadth, c.activity, c.k, workspace);
    DiffOutcome vs_reference = CompareLists(
        dense,
        RunReference(library, core::Strategy::kBreadth, c.activity, c.k),
        strict);
    ASSERT_TRUE(vs_reference.match)
        << "Breadth forced-dense vs reference: " << vs_reference.detail
        << " (case seed " << case_seed << ")";

    auto sharded = model::BuildShardedSnapshot(library, /*num_shards=*/3);
    serve::ShardedRecommender recommender(
        sharded, core::Strategy::kBreadth);
    core::RecommendationList merged;
    recommender.RecommendPooled(c.activity, c.k, nullptr, &root_ws, merged);
    ASSERT_EQ(merged, dense)
        << "Breadth sharded forced-dense diverged (case seed " << case_seed
        << ")";
  }
  EXPECT_GT(workspace.kernel_stats.dense_resets, 0u);
}

// And forced off: the sparse accumulator stays the reference-identical
// default regardless of the knob's direction.
TEST(BreadthDenseResetOracleTest, ForcedSparseIsBitIdenticalToReference) {
  ScopedDenseMultiplier force_sparse(1e18);
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/34);
  core::QueryWorkspace workspace;
  const DiffOptions strict = Strict();
  for (int i = 0; i < 60; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    auto snapshot = model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    core::RecommendationList sparse = RunOptimizedPooled(
        library, core::Strategy::kBreadth, c.activity, c.k, workspace);
    DiffOutcome vs_reference = CompareLists(
        sparse,
        RunReference(library, core::Strategy::kBreadth, c.activity, c.k),
        strict);
    ASSERT_TRUE(vs_reference.match)
        << "Breadth forced-sparse vs reference: " << vs_reference.detail
        << " (case seed " << case_seed << ")";
  }
  EXPECT_EQ(workspace.kernel_stats.dense_resets, 0u);
}

}  // namespace
}  // namespace goalrec::testing
