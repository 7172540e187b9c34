#include "model/library.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "testing/fixtures.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace goalrec::model {
namespace {

// The CSR library hands out spans; materialise them for gtest comparisons
// (std::span has no operator==).
model::IdSet Ids(std::span<const uint32_t> ids) {
  return model::IdSet(ids.begin(), ids.end());
}

using goalrec::testing::A;
using goalrec::testing::G;
using goalrec::testing::PaperLibrary;
using goalrec::testing::RandomActivity;
using goalrec::testing::RandomLibrary;

TEST(LibraryBuilderTest, BuildsCounts) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(lib.num_actions(), 6u);
  EXPECT_EQ(lib.num_goals(), 5u);
  EXPECT_EQ(lib.num_implementations(), 5u);
}

TEST(LibraryBuilderTest, DuplicateActionsWithinImplementationCollapse) {
  LibraryBuilder builder;
  builder.AddImplementation("g", {"x", "y", "x"});
  ImplementationLibrary lib = std::move(builder).Build();
  EXPECT_EQ(lib.ActionsOf(0).size(), 2u);
}

TEST(LibraryBuilderTest, UnsortedIdsAreNormalised) {
  LibraryBuilder builder;
  ActionId x = builder.InternAction("x");
  ActionId y = builder.InternAction("y");
  GoalId g = builder.InternGoal("g");
  builder.AddImplementationIds(g, {y, x});
  ImplementationLibrary lib = std::move(builder).Build();
  EXPECT_EQ(Ids(lib.ActionsOf(0)), (IdSet{x, y}));
}

TEST(LibraryBuilderTest, EmptyActivityIsLegal) {
  LibraryBuilder builder;
  builder.InternGoal("g");
  builder.AddImplementationIds(0, IdSet{});
  ImplementationLibrary lib = std::move(builder).Build();
  EXPECT_TRUE(lib.ActionsOf(0).empty());
}

TEST(LibraryBuilderTest, FromLibraryExtendsExisting) {
  ImplementationLibrary original = PaperLibrary();
  LibraryBuilder builder = LibraryBuilder::FromLibrary(original);
  // Existing names resolve to their original ids; new content appends.
  EXPECT_EQ(builder.InternAction("a1"), A(1));
  builder.AddImplementation("g6", {"a1", "a7"});
  ImplementationLibrary extended = std::move(builder).Build();
  EXPECT_EQ(extended.num_implementations(),
            original.num_implementations() + 1);
  EXPECT_EQ(extended.num_goals(), original.num_goals() + 1);
  EXPECT_EQ(extended.num_actions(), original.num_actions() + 1);
  // Old implementations intact.
  EXPECT_EQ(Ids(extended.ActionsOf(0)), Ids(original.ActionsOf(0)));
  // a1's postings gained the new implementation.
  EXPECT_EQ(extended.ImplsOfAction(A(1)).size(),
            original.ImplsOfAction(A(1)).size() + 1);
}

TEST(EmptyLibraryTest, AllCountsZero) {
  ImplementationLibrary lib;
  EXPECT_EQ(lib.num_actions(), 0u);
  EXPECT_EQ(lib.num_goals(), 0u);
  EXPECT_EQ(lib.num_implementations(), 0u);
  EXPECT_TRUE(lib.ImplementationSpace({}).empty());
  EXPECT_DOUBLE_EQ(lib.ActionConnectivity(), 0.0);
  EXPECT_DOUBLE_EQ(lib.AvgImplementationLength(), 0.0);
}

TEST(LibraryIndexTest, GiAIndexReturnsActivities) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(Ids(lib.ActionsOf(0)), (IdSet{A(1), A(2), A(3)}));
  EXPECT_EQ(Ids(lib.ActionsOf(3)), (IdSet{A(2), A(6)}));
}

TEST(LibraryIndexTest, GiGIndexReturnsGoals) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(lib.GoalOf(0), G(1));
  EXPECT_EQ(lib.GoalOf(4), G(5));
}

TEST(LibraryIndexTest, AGiIndexMatchesExample43) {
  // Example 4.3: a1 participates in A1, A2, A3 and A5, so its
  // implementation space is {p1, p2, p3, p5}.
  ImplementationLibrary lib = PaperLibrary();
  std::span<const ImplId> impls = lib.ImplsOfAction(A(1));
  EXPECT_EQ(IdSet(impls.begin(), impls.end()), (IdSet{0, 1, 2, 4}));
}

TEST(LibraryIndexTest, GGiIndexGroupsByGoal) {
  LibraryBuilder builder;
  builder.AddImplementation("same", {"x"});
  builder.AddImplementation("same", {"y"});
  builder.AddImplementation("other", {"z"});
  ImplementationLibrary lib = std::move(builder).Build();
  std::span<const ImplId> impls = lib.ImplsOfGoal(0);
  EXPECT_EQ(IdSet(impls.begin(), impls.end()), (IdSet{0, 1}));
  EXPECT_EQ(lib.ImplsOfGoal(1).size(), 1u);
}

TEST(LibrarySpacesTest, GoalSpaceOfActionMatchesExample43) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(lib.GoalSpaceOfAction(A(1)), (IdSet{G(1), G(2), G(3), G(5)}));
}

TEST(LibrarySpacesTest, ActionSpaceOfActionMatchesExample43) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(lib.ActionSpaceOfAction(A(1)),
            (IdSet{A(2), A(3), A(4), A(5), A(6)}));
}

TEST(LibrarySpacesTest, ActionSpaceExcludesTheActionItself) {
  ImplementationLibrary lib = PaperLibrary();
  IdSet space = lib.ActionSpaceOfAction(A(1));
  EXPECT_FALSE(util::Contains(space, A(1)));
}

TEST(LibrarySpacesTest, ImplementationSpaceOfActivity) {
  ImplementationLibrary lib = PaperLibrary();
  // H = {a2, a3}: implementations containing a2 or a3 are p1 and p4.
  EXPECT_EQ(lib.ImplementationSpace({A(2), A(3)}), (IdSet{0, 3}));
}

TEST(LibrarySpacesTest, GoalSpaceOfActivity) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(lib.GoalSpace({A(2), A(3)}), (IdSet{G(1), G(4)}));
}

TEST(LibrarySpacesTest, ActionSpaceOfActivityKeepsCoOccurringMembers) {
  ImplementationLibrary lib = PaperLibrary();
  // a2 and a3 co-occur in p1, so both stay in AS(H); a1 and a6 join through
  // p1/p4.
  EXPECT_EQ(lib.ActionSpace({A(2), A(3)}), (IdSet{A(1), A(2), A(3), A(6)}));
}

TEST(LibrarySpacesTest, ActionSpaceDropsLonelyMembers) {
  // A member of H occurring only in implementations where it is the sole
  // H action is not in AS(H) (Definition 4.2 excludes a from AS(a)).
  LibraryBuilder builder;
  builder.AddImplementation("g1", {"x", "y"});
  builder.AddImplementation("g2", {"z", "w"});
  ImplementationLibrary lib = std::move(builder).Build();
  ActionId x = *lib.actions().Find("x");
  ActionId z = *lib.actions().Find("z");
  IdSet space = lib.ActionSpace({x, z});
  EXPECT_FALSE(util::Contains(space, x));
  EXPECT_FALSE(util::Contains(space, z));
  EXPECT_EQ(space.size(), 2u);  // y and w
}

TEST(LibrarySpacesTest, CandidatesExcludeActivity) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_EQ(lib.CandidateActions({A(2), A(3)}), (IdSet{A(1), A(6)}));
}

TEST(LibrarySpacesTest, EmptyActivityHasEmptySpaces) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_TRUE(lib.ImplementationSpace({}).empty());
  EXPECT_TRUE(lib.GoalSpace({}).empty());
  EXPECT_TRUE(lib.ActionSpace({}).empty());
}

TEST(LibrarySpacesTest, UnknownActionIdsAreIgnored) {
  ImplementationLibrary lib = PaperLibrary();
  // Ids beyond the vocabulary (e.g. actions known only to the activity log)
  // contribute nothing rather than crashing.
  EXPECT_TRUE(lib.ImplementationSpace({999}).empty());
  EXPECT_EQ(lib.GoalSpace({A(2), 999}), lib.GoalSpace({A(2)}));
}

TEST(LibraryStatsTest, ConnectivityOfPaperLibrary) {
  ImplementationLibrary lib = PaperLibrary();
  // Postings: a1:4, a2:2, a3:1, a4:1, a5:1, a6:2 -> 11 / 6 active actions.
  EXPECT_NEAR(lib.ActionConnectivity(), 11.0 / 6.0, 1e-12);
}

TEST(LibraryStatsTest, ConnectivityIgnoresInertActions) {
  LibraryBuilder builder;
  builder.InternAction("unused");
  builder.AddImplementation("g", {"used"});
  ImplementationLibrary lib = std::move(builder).Build();
  EXPECT_DOUBLE_EQ(lib.ActionConnectivity(), 1.0);
}

TEST(LibraryStatsTest, AvgImplementationLength) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_NEAR(lib.AvgImplementationLength(), 11.0 / 5.0, 1e-12);
}

// --- property tests over random libraries -----------------------------------

// gtest prints a parameter that has no PrintTo as its object bytes, and
// ctest names each instance by that dump, so the struct must have no
// padding: indeterminate padding bytes name the same test differently in
// every build tree.
struct SpaceParams {
  uint32_t num_actions;
  uint32_t num_goals;
  uint32_t num_impls;
  uint32_t max_size;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SpaceParams>);

class LibraryPropertyTest : public ::testing::TestWithParam<SpaceParams> {};

TEST_P(LibraryPropertyTest, GoalSpaceIsUnionOfSingletonGoalSpaces) {
  const SpaceParams& p = GetParam();
  ImplementationLibrary lib = RandomLibrary(p.num_actions, p.num_goals,
                                            p.num_impls, p.max_size, p.seed);
  util::Rng rng(p.seed + 1);
  for (int trial = 0; trial < 20; ++trial) {
    Activity h = RandomActivity(p.num_actions, 1 + rng.UniformUint32(6), rng);
    IdSet expected;
    for (ActionId a : h) {
      expected = util::Union(expected, lib.GoalSpaceOfAction(a));
    }
    EXPECT_EQ(lib.GoalSpace(h), expected);
  }
}

TEST_P(LibraryPropertyTest, ActionSpaceIsUnionOfSingletonActionSpaces) {
  const SpaceParams& p = GetParam();
  ImplementationLibrary lib = RandomLibrary(p.num_actions, p.num_goals,
                                            p.num_impls, p.max_size, p.seed);
  util::Rng rng(p.seed + 2);
  for (int trial = 0; trial < 20; ++trial) {
    Activity h = RandomActivity(p.num_actions, 1 + rng.UniformUint32(6), rng);
    IdSet expected;
    for (ActionId a : h) {
      expected = util::Union(expected, lib.ActionSpaceOfAction(a));
    }
    EXPECT_EQ(lib.ActionSpace(h), expected);
  }
}

TEST_P(LibraryPropertyTest, ImplementationSpaceMatchesBruteForce) {
  const SpaceParams& p = GetParam();
  ImplementationLibrary lib = RandomLibrary(p.num_actions, p.num_goals,
                                            p.num_impls, p.max_size, p.seed);
  util::Rng rng(p.seed + 3);
  for (int trial = 0; trial < 20; ++trial) {
    Activity h = RandomActivity(p.num_actions, 1 + rng.UniformUint32(6), rng);
    IdSet expected;
    for (ImplId q = 0; q < lib.num_implementations(); ++q) {
      if (util::IntersectionSize(lib.ActionsOf(q), h) > 0) {
        expected.push_back(q);
      }
    }
    EXPECT_EQ(lib.ImplementationSpace(h), expected);
  }
}

TEST_P(LibraryPropertyTest, CandidatesNeverIntersectActivity) {
  const SpaceParams& p = GetParam();
  ImplementationLibrary lib = RandomLibrary(p.num_actions, p.num_goals,
                                            p.num_impls, p.max_size, p.seed);
  util::Rng rng(p.seed + 4);
  for (int trial = 0; trial < 20; ++trial) {
    Activity h = RandomActivity(p.num_actions, 1 + rng.UniformUint32(6), rng);
    EXPECT_EQ(util::IntersectionSize(lib.CandidateActions(h), h), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomLibraries, LibraryPropertyTest,
    ::testing::Values(SpaceParams{10, 4, 20, 4, 1},
                      SpaceParams{30, 10, 100, 6, 2},
                      SpaceParams{50, 20, 300, 8, 3},
                      SpaceParams{8, 2, 40, 3, 4},
                      SpaceParams{100, 50, 500, 5, 5}));

// --- The blocked transpose ---------------------------------------------------

// Rows for a library of about `postings` postings over 2,000 actions and 400
// goals, built by hand so its shape is pinned: the last 5 actions and goals
// occur nowhere, every 7th implementation is empty, and the implementation
// count is odd, so no block count above 1 divides it.
struct TransposeCase {
  std::vector<GoalId> goals;
  std::vector<IdSet> actions;
};

TransposeCase MakeTransposeCase(size_t postings, uint64_t seed) {
  constexpr uint32_t kActions = 2000;
  constexpr uint32_t kGoals = 400;
  util::Rng rng(seed);
  TransposeCase c;
  size_t total = 0;
  while (total < postings || c.goals.size() % 2 == 0) {
    IdSet actions;
    if (c.goals.size() % 7 != 6) {
      const uint32_t size = 1 + rng.UniformUint32(11);
      for (uint32_t i = 0; i < size; ++i) {
        actions.push_back(rng.UniformUint32(kActions - 5));
      }
      util::Normalize(actions);
    }
    total += actions.size();
    c.goals.push_back(rng.UniformUint32(kGoals - 5));
    c.actions.push_back(std::move(actions));
  }
  return c;
}

ImplementationLibrary BuildTransposeCase(const TransposeCase& c,
                                         size_t blocks) {
  Vocabulary actions;
  Vocabulary goals;
  for (uint32_t a = 0; a < 2000; ++a) actions.Intern("a" + std::to_string(a));
  for (uint32_t g = 0; g < 400; ++g) goals.Intern("g" + std::to_string(g));
  LibraryRowWriter writer(std::move(actions), std::move(goals),
                          c.goals.size(), 0);
  for (size_t p = 0; p < c.goals.size(); ++p) {
    writer.AppendRow(c.goals[p], c.actions[p]);
  }
  return std::move(writer).Finish(blocks);
}

// A-GI and G-GI of `lib` equal a naive transpose of its rows, row by row,
// and the precomputed sizes match the rows.
void ExpectNaiveTranspose(const ImplementationLibrary& lib) {
  std::vector<IdSet> by_action(lib.num_actions());
  std::vector<IdSet> by_goal(lib.num_goals());
  uint32_t max_size = 0;
  for (ImplId p = 0; p < lib.num_implementations(); ++p) {
    by_goal[lib.GoalOf(p)].push_back(p);
    for (ActionId a : lib.ActionsOf(p)) by_action[a].push_back(p);
    ASSERT_EQ(lib.ImplActionCountD(p),
              static_cast<double>(lib.ActionsOf(p).size()));
    max_size = std::max<uint32_t>(max_size, lib.ImplActionCount(p));
  }
  for (ActionId a = 0; a < lib.num_actions(); ++a) {
    ASSERT_EQ(Ids(lib.ImplsOfAction(a)), by_action[a]) << "action " << a;
  }
  for (GoalId g = 0; g < lib.num_goals(); ++g) {
    ASSERT_EQ(Ids(lib.ImplsOfGoal(g)), by_goal[g]) << "goal " << g;
  }
  EXPECT_EQ(lib.max_implementation_size(), max_size);
}

TEST(LibraryTransposeTest, LibrariesStraddlingTheCutOffMatchANaiveTranspose) {
  for (size_t postings : {kParallelMinPostings - 100,
                          kParallelMinPostings + 100,
                          2 * kParallelMinPostings + 100}) {
    SCOPED_TRACE(postings);
    TransposeCase c = MakeTransposeCase(postings, postings);
    ImplementationLibrary lib = BuildTransposeCase(c, /*blocks=*/0);
    EXPECT_EQ(lib.num_postings() >= kParallelMinPostings,
              postings > kParallelMinPostings);
    EXPECT_TRUE(lib.ImplsOfAction(1999).empty());
    EXPECT_TRUE(lib.ImplsOfGoal(399).empty());
    ExpectNaiveTranspose(lib);
  }
}

TEST(LibraryTransposeTest, EveryBlockCountBuildsTheSameLibrary) {
  TransposeCase c = MakeTransposeCase(20000, 11);
  ImplementationLibrary serial = BuildTransposeCase(c, /*blocks=*/1);
  ExpectNaiveTranspose(serial);
  for (size_t blocks : {2u, 3u, 4u, 5u, 7u, 64u}) {
    SCOPED_TRACE(blocks);
    ImplementationLibrary lib = BuildTransposeCase(c, blocks);
    for (ActionId a = 0; a < lib.num_actions(); ++a) {
      ASSERT_EQ(Ids(lib.ImplsOfAction(a)), Ids(serial.ImplsOfAction(a)));
    }
    for (GoalId g = 0; g < lib.num_goals(); ++g) {
      ASSERT_EQ(Ids(lib.ImplsOfGoal(g)), Ids(serial.ImplsOfGoal(g)));
    }
    EXPECT_EQ(lib.max_implementation_size(), serial.max_implementation_size());
  }
  // More blocks than implementations, and no implementations at all.
  TransposeCase tiny = MakeTransposeCase(3, 5);
  ExpectNaiveTranspose(BuildTransposeCase(tiny, 64));
  ExpectNaiveTranspose(BuildTransposeCase(TransposeCase{}, 4));
}

// The CSR accessors must fail loudly on out-of-range ids, and the message
// must say *which* id and how big the library is — the first question a
// crash report answers.
TEST(LibraryAccessorDeathTest, OutOfRangeIdsAbortWithDiagnostics) {
  ImplementationLibrary lib = PaperLibrary();  // 5 impls, 6 actions, 5 goals
  EXPECT_DEATH({ lib.implementation(99); },
               "implementation id 99 out of range.*5 implementations");
  EXPECT_DEATH({ lib.GoalOf(5); },
               "implementation id 5 out of range.*5 implementations");
  EXPECT_DEATH({ lib.ActionsOf(100); },
               "implementation id 100 out of range.*5 implementations");
  EXPECT_DEATH({ lib.ImplsOfAction(6); },
               "action id 6 out of range.*6 actions");
  EXPECT_DEATH({ lib.ImplsOfGoal(17); }, "goal id 17 out of range.*5 goals");
}

}  // namespace
}  // namespace goalrec::model
