// The shrinker and the repro file format. The failure predicates here look
// up actions and goals BY NAME, exactly because that is what must survive
// both shrinking (vocabulary preserved, ids stable) and a repro round-trip
// (ids compacted order-preservingly, names intact).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <span>

#include "model/library.h"
#include "testing/differential.h"
#include "testing/generator.h"
#include "testing/reference.h"
#include "testing/shrink.h"
#include "util/random.h"
#include "util/status.h"

namespace goalrec::testing {
namespace {

bool Contains(std::span<const uint32_t> set, uint32_t id) {
  return std::find(set.begin(), set.end(), id) != set.end();
}

// "Fails" iff some implementation of goal `bad` contains action `trigger`
// AND action `poison` is in H. Everything else in the case is noise the
// shrinker should strip.
bool NameBasedFailure(const OracleCase& c) {
  auto bad = c.library.goals().Find("bad");
  auto trigger = c.library.actions().Find("trigger");
  auto poison = c.library.actions().Find("poison");
  if (!bad || !trigger || !poison) return false;
  if (!Contains(c.activity, *poison)) return false;
  for (model::ImplId p = 0; p < c.library.num_implementations(); ++p) {
    if (c.library.GoalOf(p) == *bad &&
        Contains(c.library.ActionsOf(p), *trigger)) {
      return true;
    }
  }
  return false;
}

// A deliberately noisy failing case: three goals, five implementations, an
// activity with three actions. Only one implementation and one activity
// action matter to NameBasedFailure.
OracleCase NoisyNameBasedCase() {
  model::LibraryBuilder builder;
  builder.AddImplementation("bad", {"trigger", "filler1"});
  builder.AddImplementation("bad", {"filler1", "filler2"});
  builder.AddImplementation("noise_a", {"trigger", "poison"});
  builder.AddImplementation("noise_a", {"filler3"});
  builder.AddImplementation("noise_b", {"filler2", "filler3", "poison"});
  OracleCase c;
  c.library = std::move(builder).Build();
  c.activity = {*c.library.actions().Find("poison"),
                *c.library.actions().Find("filler1"),
                *c.library.actions().Find("filler3")};
  std::sort(c.activity.begin(), c.activity.end());
  c.k = 4;
  return c;
}

TEST(ShrinkTest, StripsEverythingTheFailureDoesNotNeed) {
  OracleCase noisy = NoisyNameBasedCase();
  ASSERT_TRUE(NameBasedFailure(noisy));

  ShrinkStats stats;
  OracleCase shrunk = ShrinkFailure(noisy, NameBasedFailure, &stats);

  EXPECT_TRUE(NameBasedFailure(shrunk));
  EXPECT_EQ(shrunk.library.num_implementations(), 1u);
  EXPECT_EQ(shrunk.activity.size(), 1u);
  EXPECT_EQ(shrunk.k, noisy.k);
  // The surviving implementation is the (bad, trigger) one and the surviving
  // activity action is poison.
  EXPECT_EQ(shrunk.library.GoalOf(0),
            *shrunk.library.goals().Find("bad"));
  EXPECT_TRUE(Contains(shrunk.library.ActionsOf(0),
                       *shrunk.library.actions().Find("trigger")));
  EXPECT_EQ(shrunk.activity[0], *shrunk.library.actions().Find("poison"));

  EXPECT_EQ(stats.impls_before, 5u);
  EXPECT_EQ(stats.impls_after, 1u);
  EXPECT_EQ(stats.activity_before, 3u);
  EXPECT_EQ(stats.activity_after, 1u);
  EXPECT_GE(stats.passes, 1u);
  EXPECT_GT(stats.predicate_calls, 0u);
}

// Simulated strategy bug: every Breadth score off by the paper formula.
// Against the reference this fails exactly when Breadth recommends anything,
// so the minimal repro is one implementation with one recommendable action —
// comfortably under the <= 3 implementations the fuzz driver promises.
bool SimulatedBreadthBug(const OracleCase& c) {
  ReferenceList reference = ReferenceBreadth(c.library, c.activity, c.k);
  core::RecommendationList buggy;
  for (const ReferenceItem& item : reference) {
    buggy.push_back({item.action, item.score + 1.0});
  }
  return !CompareLists(buggy, reference).match;
}

TEST(ShrinkTest, ShrinksAGeneratedBreadthDivergenceToAtMostThreeImpls) {
  std::vector<CaseShape> shapes = DefaultCaseShapes();
  util::Rng seeds(/*seed=*/20260809, /*stream=*/41);
  int shrunk_cases = 0;
  for (int trial = 0; trial < 20; ++trial) {
    OracleCase c = GenerateCase(
        shapes[static_cast<size_t>(trial) % shapes.size()],
        seeds.NextUint64());
    if (!SimulatedBreadthBug(c)) continue;

    ShrinkStats stats;
    OracleCase shrunk = ShrinkFailure(c, SimulatedBreadthBug, &stats);
    EXPECT_TRUE(SimulatedBreadthBug(shrunk));
    EXPECT_LE(shrunk.library.num_implementations(), 3u);
    EXPECT_LE(shrunk.library.num_implementations(), stats.impls_before);
    ++shrunk_cases;
  }
  // The generator's shapes make an empty Breadth answer rare; most trials
  // must exercise the shrinker.
  EXPECT_GE(shrunk_cases, 10);
}

TEST(ShrinkReproTest, RoundTripPreservesMetadataAndTheFailure) {
  OracleCase shrunk = ShrinkFailure(NoisyNameBasedCase(), NameBasedFailure);
  std::string path = ::testing::TempDir() + "/oracle_shrink_repro.tsv";
  util::Status written = WriteRepro(shrunk, "Breadth", /*seed=*/987654, path,
                                    "RecommendPooled(null)");
  ASSERT_TRUE(written.ok()) << written.ToString();

  util::StatusOr<ReproCase> loaded = LoadRepro(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->strategy, "Breadth");
  EXPECT_EQ(loaded->entry_point, "RecommendPooled(null)");
  EXPECT_EQ(loaded->seed, 987654u);
  EXPECT_EQ(loaded->oracle_case.k, shrunk.k);
  EXPECT_EQ(loaded->oracle_case.library.num_implementations(),
            shrunk.library.num_implementations());
  EXPECT_EQ(loaded->oracle_case.activity.size(), shrunk.activity.size());
  // Ids were compacted but names survived, so the predicate still holds.
  EXPECT_TRUE(NameBasedFailure(loaded->oracle_case));

  EXPECT_NE(ReproCommandLine(path).find(path), std::string::npos);
}

// Regression: the fuzz driver's replay header must name the strategy that
// diverged before anything else runs. It once printed only the case
// dimensions, so a replay log did not say WHICH strategy to suspect until
// after the per-strategy re-check output.
TEST(ShrinkReproTest, DescribeReproLeadsWithTheDivergingStrategy) {
  OracleCase shrunk = ShrinkFailure(NoisyNameBasedCase(), NameBasedFailure);
  std::string path = ::testing::TempDir() + "/oracle_shrink_describe.tsv";
  ASSERT_TRUE(WriteRepro(shrunk, "BestMatch", /*seed=*/13579, path).ok());
  util::StatusOr<ReproCase> loaded = LoadRepro(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::string description = DescribeRepro(*loaded);
  // Leads with the strategy name, and carries the dimensions and seed.
  EXPECT_EQ(description.rfind("BestMatch:", 0), 0u) << description;
  EXPECT_NE(description.find("|H| = "), std::string::npos) << description;
  EXPECT_NE(description.find("k = " + std::to_string(shrunk.k)),
            std::string::npos)
      << description;
  EXPECT_NE(description.find("seed 13579"), std::string::npos) << description;

  // A repro that pins no strategy replays them all; the description says so.
  ReproCase unpinned = *loaded;
  unpinned.strategy.clear();
  EXPECT_EQ(DescribeRepro(unpinned).rfind("all strategies:", 0), 0u);
}

TEST(ShrinkReproTest, LoadRejectsAFileWithoutTheLibraryHeader) {
  std::string path = ::testing::TempDir() + "/oracle_shrink_bad_repro.tsv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("#!strategy: Breadth\ngoal1\tact1\n", f);
  std::fclose(f);
  EXPECT_FALSE(LoadRepro(path).ok());
}

}  // namespace
}  // namespace goalrec::testing
