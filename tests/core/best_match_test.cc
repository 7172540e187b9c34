#include "core/best_match.h"

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "model/sharding.h"
#include "serve/sharded.h"
#include "testing/differential.h"
#include "testing/fixtures.h"
#include "testing/reference.h"
#include "util/deadline.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace goalrec::core {
namespace {

using goalrec::testing::A;
using goalrec::testing::G;
using goalrec::testing::PaperLibrary;

TEST(BestMatchTest, Name) {
  model::ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(BestMatchRecommender(&lib).name(), "BestMatch");
}

TEST(BestMatchTest, ActionVectorImplementationCounts) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchRecommender best_match(&lib);
  // Goal space of H = {a2, a3} is {g1, g4}.
  model::IdSet goal_space = {G(1), G(4)};
  // a1 contributes to g1 through p1 only; never to g4.
  EXPECT_EQ(best_match.ActionVector(A(1), goal_space),
            (util::DenseVector{1.0, 0.0}));
  // a6 contributes to g4 through p4; g5 is outside the space.
  EXPECT_EQ(best_match.ActionVector(A(6), goal_space),
            (util::DenseVector{0.0, 1.0}));
}

TEST(BestMatchTest, ActionVectorCountsMultipleImplementations) {
  model::LibraryBuilder builder;
  builder.AddImplementation("g", {"a", "x"});
  builder.AddImplementation("g", {"a", "y"});
  model::ImplementationLibrary lib = std::move(builder).Build();
  BestMatchRecommender best_match(&lib);
  model::ActionId a = *lib.actions().Find("a");
  // Eq. 8: two implementations of the same goal both count.
  EXPECT_EQ(best_match.ActionVector(a, {0}), (util::DenseVector{2.0}));
}

TEST(BestMatchTest, BooleanRepresentationCapsAtOne) {
  model::LibraryBuilder builder;
  builder.AddImplementation("g", {"a", "x"});
  builder.AddImplementation("g", {"a", "y"});
  model::ImplementationLibrary lib = std::move(builder).Build();
  BestMatchOptions options;
  options.representation = GoalVectorRepresentation::kBoolean;
  BestMatchRecommender best_match(&lib, options);
  model::ActionId a = *lib.actions().Find("a");
  // Eq. 7: 1 iff the action contributes through at least one implementation.
  EXPECT_EQ(best_match.ActionVector(a, {0}), (util::DenseVector{1.0}));
}

TEST(BestMatchTest, ProfileAggregatesActivityVectors) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchRecommender best_match(&lib);
  model::IdSet goal_space = {G(1), G(4)};
  // a2 -> p1 (g1) + p4 (g4); a3 -> p1 (g1). Profile = [2, 1] (Eq. 9).
  EXPECT_EQ(best_match.Profile({A(2), A(3)}, goal_space),
            (util::DenseVector{2.0, 1.0}));
}

TEST(BestMatchTest, RecommendPaperExampleEuclidean) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchRecommender best_match(&lib);
  RecommendationList list = best_match.Recommend({A(2), A(3)}, 10);
  ASSERT_EQ(list.size(), 2u);
  // dist(profile [2,1], a1 [1,0]) = sqrt(2); dist to a6 [0,1] = 2.
  EXPECT_EQ(list[0].action, A(1));
  EXPECT_NEAR(-list[0].score, std::sqrt(2.0), 1e-12);
  EXPECT_EQ(list[1].action, A(6));
  EXPECT_NEAR(-list[1].score, 2.0, 1e-12);
}

TEST(BestMatchTest, CosineMetricKeepsSameWinnerHere) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchOptions options;
  options.metric = util::DistanceMetric::kCosine;
  BestMatchRecommender best_match(&lib, options);
  RecommendationList list = best_match.Recommend({A(2), A(3)}, 10);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].action, A(1));
}

TEST(BestMatchTest, ManhattanMetric) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchOptions options;
  options.metric = util::DistanceMetric::kManhattan;
  BestMatchRecommender best_match(&lib, options);
  RecommendationList list = best_match.Recommend({A(2), A(3)}, 10);
  ASSERT_EQ(list.size(), 2u);
  // |[2,1] - [1,0]|_1 = 2; |[2,1] - [0,1]|_1 = 2: tie -> ascending id.
  EXPECT_EQ(list[0].action, A(1));
  EXPECT_EQ(list[1].action, A(6));
}

TEST(BestMatchTest, RespectsK) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchRecommender best_match(&lib);
  EXPECT_EQ(best_match.Recommend({A(1)}, 2).size(), 2u);
  EXPECT_TRUE(best_match.Recommend({A(1)}, 0).empty());
}

TEST(BestMatchTest, EmptyActivityGivesEmptyList) {
  model::ImplementationLibrary lib = PaperLibrary();
  EXPECT_TRUE(BestMatchRecommender(&lib).Recommend({}, 10).empty());
}

TEST(BestMatchTest, NeverRecommendsPerformedActions) {
  model::ImplementationLibrary lib = PaperLibrary();
  BestMatchRecommender best_match(&lib);
  for (const ScoredAction& entry : best_match.Recommend({A(1), A(2)}, 10)) {
    EXPECT_NE(entry.action, A(1));
    EXPECT_NE(entry.action, A(2));
  }
}

TEST(BestMatchTest, PrefersActionAlignedWithUserEffortDistribution) {
  // The §5.3 narrative: an action serving the goals the user worked on most
  // beats one serving a goal the user ignored.
  model::LibraryBuilder builder;
  builder.AddImplementation("worked_a_lot", {"h1", "h2", "aligned"});
  builder.AddImplementation("worked_a_lot", {"h1", "aligned", "x"});
  builder.AddImplementation("ignored", {"h2", "misaligned"});
  model::ImplementationLibrary lib = std::move(builder).Build();
  BestMatchRecommender best_match(&lib);
  model::Activity h = {*lib.actions().Find("h1"), *lib.actions().Find("h2")};
  RecommendationList list = best_match.Recommend(h, 1);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].action, *lib.actions().Find("aligned"));
}

// A stop that fires partway through the goal-major scan: no distance is
// complete yet, so the query returns nothing rather than distances summed
// over only some goals, and the workspace it leaves behind still serves
// the next query exactly.
TEST(BestMatchTest, StopMidScanReturnsEmptyAndLeavesWorkspaceClean) {
  model::ImplementationLibrary lib = goalrec::testing::RandomLibrary(
      /*num_actions=*/40, /*num_goals=*/200, /*num_impls=*/600,
      /*max_size=*/3, /*seed=*/5);
  util::Rng rng(11);
  model::Activity activity = goalrec::testing::RandomActivity(40, 10, rng);
  // The scan polls once per goal of GS(H); an expired deadline polled with
  // stride 8 lets goals 0..6 through and stops at goal 7.
  constexpr uint32_t kStride = 8;
  ASSERT_GT(lib.GoalSpace(activity).size(), kStride);
  for (GoalVectorRepresentation representation :
       {GoalVectorRepresentation::kImplementationCount,
        GoalVectorRepresentation::kBoolean}) {
    for (util::DistanceMetric metric :
         {util::DistanceMetric::kEuclidean, util::DistanceMetric::kManhattan,
          util::DistanceMetric::kCosine}) {
      BestMatchRecommender best_match(&lib, {representation, metric});
      RecommendationList full = best_match.Recommend(activity, 10);
      ASSERT_FALSE(full.empty());

      QueryWorkspace ws;
      util::StopToken stop(util::Deadline::AfterMillis(0),
                           util::CancellationToken(), kStride);
      RecommendationList out = full;
      best_match.RecommendPooled(activity, 10, &stop, &ws, out);
      EXPECT_TRUE(stop.StopRequested());
      EXPECT_TRUE(out.empty());

      best_match.RecommendPooled(activity, 10, nullptr, &ws, out);
      EXPECT_EQ(out, full);
    }
  }
}

// The scan collects candidates from the implementations of IS(H) only.
// Goal g has implementations {h, a} and {b, c}, and goal o {c, d} is
// disjoint from H = {h}: the scan walks {b, c} and gives b and c partials,
// but neither is in AS(H) − H, so only a may be recommended, on every path.
TEST(BestMatchTest, ScanCollectsOnlyTheActionSpaceOfH) {
  model::LibraryBuilder builder;
  builder.AddImplementation("g", {"h", "a"});
  builder.AddImplementation("g", {"b", "c"});
  builder.AddImplementation("o", {"c", "d"});
  model::ImplementationLibrary lib = std::move(builder).Build();
  const model::ActionId h = *lib.actions().Find("h");
  const model::ActionId a = *lib.actions().Find("a");
  const model::Activity activity = {h};
  std::shared_ptr<const model::ShardedSnapshot> sharded =
      model::BuildShardedSnapshot(lib, /*num_shards=*/4);
  util::ThreadPool pool(2);
  QueryWorkspace warm;
  testing::DiffOptions strict;
  strict.strict_order = true;
  for (const BestMatchOptions& variant :
       testing::OracleVariants(core::Strategy::kBestMatch)) {
    const std::string name = testing::OracleVariantName(
        core::Strategy::kBestMatch, variant);
    const testing::ReferenceList expected =
        testing::ReferenceBestMatch(lib, activity, 10, variant);
    ASSERT_EQ(expected.size(), 1u) << name;
    ASSERT_EQ(expected[0].action, a) << name;
    const BestMatchRecommender kernel(&lib, variant);
    const serve::ShardedRecommender fanned(
        sharded, core::Strategy::kBestMatch, &pool, variant);
    for (const Recommender* r :
         {static_cast<const Recommender*>(&kernel),
          static_cast<const Recommender*>(&fanned)}) {
      const std::string subject = r == &kernel ? name : name + "/4-shard";
      RecommendationList pooled_warm, pooled_null;
      r->RecommendPooled(activity, 10, nullptr, &warm, pooled_warm);
      r->RecommendPooled(activity, 10, nullptr, nullptr, pooled_null);
      const std::pair<const char*, RecommendationList> answers[] = {
          {"Recommend", r->Recommend(activity, 10)},
          {"RecommendPooled(warm)", pooled_warm},
          {"RecommendPooled(null)", pooled_null},
      };
      for (const auto& [path, list] : answers) {
        testing::DiffOutcome outcome =
            testing::CompareLists(list, expected, strict);
        EXPECT_TRUE(outcome.match)
            << subject << " " << path << ": " << outcome.detail;
      }
    }
  }
}

// M one-implementation goals {h, a} and one goal {h, c}, queried with
// H = {h}: GS(H) has M + 1 goals, the profile is 1 on each, a⃗ is 1 on the
// M goals and c⃗ on the last one, under both representations.
model::ImplementationLibrary CertificateLibrary(uint32_t m) {
  model::LibraryBuilder builder;
  for (uint32_t i = 0; i < m; ++i) {
    builder.AddImplementation("g" + std::to_string(i), {"h", "a"});
  }
  builder.AddImplementation("gc", {"h", "c"});
  return std::move(builder).Build();
}

// Eqs. 7-10 on CertificateLibrary(m) in closed form, in the reference's
// expression shapes: a's distance is the one mismatch on c's goal, c's the
// M mismatches on the others; cosine divides the exact dot product by the
// product of the norms.
testing::ReferenceList CertificateAnswer(uint32_t m,
                                         util::DistanceMetric metric,
                                         model::ActionId a,
                                         model::ActionId c) {
  const double dm = static_cast<double>(m);
  double da = 0.0, dc = 0.0;
  switch (metric) {
    case util::DistanceMetric::kEuclidean:
      da = std::sqrt(1.0);
      dc = std::sqrt(dm);
      break;
    case util::DistanceMetric::kManhattan:
      da = 1.0;
      dc = dm;
      break;
    case util::DistanceMetric::kCosine:
      da = 1.0 - dm / (std::sqrt(dm + 1.0) * std::sqrt(dm));
      dc = 1.0 - 1.0 / (std::sqrt(dm + 1.0) * std::sqrt(1.0));
      break;
  }
  return {{a, -da}, {c, -dc}};
}

// The exactness certificate fails for a candidate whose posting list is
// long enough: with M = 110,000, (8·|GS(H)| + 8)·|ImplsOfAction(a)|² is
// about 1.06e16, past 9e15, so the kernel re-embeds a densely while c (one
// posting) stays on the sparse read-off. The answer must not change. The
// naive reference and the closed form must agree at M = 100, where the
// certificate holds, and at M = 110,000, where it fails.
TEST(BestMatchTest, FailedCertificateFallsBackDenselyAndMatchesOracle) {
  for (uint32_t m : {100u, 110000u}) {
    model::ImplementationLibrary lib = CertificateLibrary(m);
    const model::ActionId h = *lib.actions().Find("h");
    const model::ActionId a = *lib.actions().Find("a");
    const model::ActionId c = *lib.actions().Find("c");
    const uint32_t fallbacks_per_query = m == 100 ? 0 : 1;
    QueryWorkspace ws;
    for (const BestMatchOptions& variant :
         testing::OracleVariants(core::Strategy::kBestMatch)) {
      const std::string name =
          testing::OracleVariantName(core::Strategy::kBestMatch,
                                     variant);
      testing::ReferenceList expected =
          CertificateAnswer(m, variant.metric, a, c);
      ASSERT_EQ(testing::ReferenceBestMatch(lib, {h}, 10, variant), expected)
          << name << " M = " << m;
      testing::DiffOptions strict;
      strict.strict_order = true;
      BestMatchRecommender best_match(&lib, variant);
      testing::DiffOutcome allocating =
          testing::CompareLists(best_match.Recommend({h}, 10), expected,
                                strict);
      EXPECT_TRUE(allocating.match) << name << " M = " << m << ": "
                                    << allocating.detail;
      for (int repeat = 0; repeat < 2; ++repeat) {
        const uint32_t before = ws.kernel_stats.dense_fallbacks;
        RecommendationList pooled;
        best_match.RecommendPooled(model::Activity{h}, 10, nullptr, &ws,
                                   pooled);
        EXPECT_EQ(ws.kernel_stats.dense_fallbacks - before,
                  fallbacks_per_query)
            << name << " M = " << m;
        testing::DiffOutcome outcome =
            testing::CompareLists(pooled, expected, strict);
        EXPECT_TRUE(outcome.match) << name << " M = " << m << ": "
                                   << outcome.detail;
      }
    }
  }
}

TEST(BestMatchDeathTest, NullLibraryAborts) {
  EXPECT_DEATH({ BestMatchRecommender best_match(nullptr); }, "CHECK failed");
}

}  // namespace
}  // namespace goalrec::core
