// Differential safety net for the CSR snapshot refactor: the flat-array
// (offsets/postings) indexes and the pooled zero-allocation query path must
// be *bit-identical* to the naive reference oracle — same spaces, same
// scores, same emission order — across hundreds of seeded generated cases.
// One QueryWorkspace is reused for the whole sweep, exactly like a serving
// thread, so cross-query contamination (a stale marker epoch, an unreset
// scratch buffer) cannot hide.
//
// Failures print the case seed; reproduce with goalrec_fuzz --seed=<seed>.

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "model/library.h"
#include "model/snapshot.h"
#include "testing/differential.h"
#include "testing/fixtures.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "util/random.h"

namespace goalrec::testing {
namespace {

// >= 240 seeded cases per strategy (ISSUE 5 acceptance bar), swept across
// every generator shape preset.
constexpr int kCasesPerStrategy = 240;
constexpr uint64_t kMasterSeed = 20260806;

model::IdSet Ids(std::span<const uint32_t> ids) {
  return model::IdSet(ids.begin(), ids.end());
}

class SnapshotOracleTest : public ::testing::TestWithParam<core::Strategy> {};

// The pooled path (reused workspace, spans into the CSR arena) against the
// reference oracle, in strict order with zero score tolerance: bit-identical
// or bust.
TEST_P(SnapshotOracleTest, PooledPathIsBitIdenticalToReference) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/21);
  core::QueryWorkspace workspace;  // reused across ALL cases, like a server
  DiffOptions strict;
  strict.strict_order = true;
  strict.score_tolerance = 0.0;
  for (int i = 0; i < kCasesPerStrategy; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    std::shared_ptr<const model::LibrarySnapshot> snapshot =
        model::MakeSnapshot(std::move(c.library));
    const model::ImplementationLibrary& library = snapshot->library;
    core::RecommendationList pooled = RunOptimizedPooled(
        library, GetParam(), c.activity, c.k, workspace);
    DiffOutcome vs_reference = CompareLists(
        pooled, RunReference(library, GetParam(), c.activity, c.k), strict);
    ASSERT_TRUE(vs_reference.match)
        << core::StrategyName(GetParam()) << " pooled vs reference: "
        << vs_reference.detail << " (case seed " << case_seed << ", shape "
        << i % shapes.size() << ", |H| = " << c.activity.size()
        << ", k = " << c.k << ")";
  }
}

// The pooled path against the allocating convenience path: both route into
// the same scoring loops, so any divergence means the workspace plumbing
// itself (epoch marks, scratch reuse) changed semantics.
TEST_P(SnapshotOracleTest, PooledPathMatchesFreshPathExactly) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/22);
  core::QueryWorkspace workspace;
  for (int i = 0; i < 120; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    core::RecommendationList fresh =
        RunOptimized(c.library, GetParam(), c.activity, c.k);
    core::RecommendationList pooled = RunOptimizedPooled(
        c.library, GetParam(), c.activity, c.k, workspace);
    ASSERT_EQ(pooled.size(), fresh.size())
        << core::StrategyName(GetParam()) << " (case seed " << case_seed
        << ")";
    for (size_t r = 0; r < fresh.size(); ++r) {
      ASSERT_EQ(pooled[r].action, fresh[r].action)
          << core::StrategyName(GetParam()) << " rank " << r << " (case seed "
          << case_seed << ")";
      // Bitwise: the pooled path must take the identical float walk.
      ASSERT_EQ(pooled[r].score, fresh[r].score)
          << core::StrategyName(GetParam()) << " rank " << r << " (case seed "
          << case_seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SnapshotOracleTest,
    ::testing::ValuesIn(core::AllStrategies()),
    [](const ::testing::TestParamInfo<core::Strategy>& info) {
      switch (info.param) {
        case core::Strategy::kFocusCompleteness:
          return std::string("FocusCmp");
        case core::Strategy::kFocusCloseness:
          return std::string("FocusCl");
        case core::Strategy::kBreadth:
          return std::string("Breadth");
        case core::Strategy::kBestMatch:
          return std::string("BestMatch");
      }
      return std::string("Unknown");
    });

// The CSR space queries (forward arena + postings prefix sums) against the
// reference set algebra, through a snapshot handle.
TEST(SnapshotSpacesTest, CsrSpacesMatchReferenceOnSeededCases) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(kMasterSeed, /*stream=*/23);
  for (int i = 0; i < 150; ++i) {
    uint64_t case_seed = seeds.NextUint64();
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(i) % shapes.size()], case_seed);
    std::shared_ptr<const model::LibrarySnapshot> snapshot =
        model::MakeSnapshot(std::move(c.library), "oracle");
    const model::ImplementationLibrary& library = snapshot->library;
    SCOPED_TRACE("case seed " + std::to_string(case_seed));
    EXPECT_EQ(ReferenceImplementationSpace(library, c.activity),
              library.ImplementationSpace(c.activity));
    EXPECT_EQ(ReferenceGoalSpace(library, c.activity),
              library.GoalSpace(c.activity));
    EXPECT_EQ(ReferenceActionSpace(library, c.activity),
              library.ActionSpace(c.activity));
    EXPECT_EQ(ReferenceCandidates(library, c.activity),
              library.CandidateActions(c.activity));
    // The per-implementation CSR rows themselves: goal + sorted actions, and
    // every posting list is a sorted set whose rows contain the action.
    for (model::ImplId p = 0; p < library.num_implementations(); ++p) {
      model::IdSet actions = Ids(library.ActionsOf(p));
      EXPECT_TRUE(std::is_sorted(actions.begin(), actions.end()));
      for (model::ActionId a : actions) {
        model::IdSet postings = Ids(library.ImplsOfAction(a));
        EXPECT_TRUE(std::binary_search(postings.begin(), postings.end(), p))
            << "impl " << p << " missing from postings of action " << a;
      }
      model::IdSet goal_impls = Ids(library.ImplsOfGoal(library.GoalOf(p)));
      EXPECT_TRUE(std::binary_search(goal_impls.begin(), goal_impls.end(), p));
    }
  }
}

// Snapshot versions are unique and monotonically increasing — the serving
// metrics rely on the version gauge moving on every successful reload.
TEST(SnapshotVersionTest, VersionsAreMonotonic) {
  OracleCase c = GenerateCase(DefaultCaseShapes()[0], kMasterSeed);
  auto first = model::MakeSnapshot(c.library, "first");
  auto second = model::MakeSnapshot(c.library, "second");
  EXPECT_LT(first->version, second->version);
  EXPECT_EQ(first->source, "first");
  EXPECT_EQ(second->source, "second");
}

}  // namespace
}  // namespace goalrec::testing
