#include "model/validate.h"

#include <gtest/gtest.h>

#include "data/fortythree.h"
#include "model/library.h"
#include "model/library_io.h"
#include "model/subset.h"
#include "testing/fixtures.h"
#include "textmine/extractor.h"
#include "util/set_ops.h"
#include "util/status.h"

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace goalrec::model {

// Corrupts a built library's index arrays in place, the way foreign code or
// a bad loader could, so the negative tests below reach every check.
class LibraryTestPeer {
 public:
  static std::vector<ActionId>& ImplActions(ImplementationLibrary& lib) {
    return lib.impl_actions_;
  }
  static std::vector<GoalId>& ImplGoals(ImplementationLibrary& lib) {
    return lib.impl_goals_;
  }
  static std::vector<ImplId> ActionRow(const ImplementationLibrary& lib,
                                       ActionId a) {
    std::span<const ImplId> row = lib.ImplsOfAction(a);
    return std::vector<ImplId>(row.begin(), row.end());
  }
  static void SetActionRow(ImplementationLibrary& lib, ActionId a,
                           const std::vector<ImplId>& row) {
    ReplaceRow(lib.action_offsets_, lib.action_postings_, a, row);
  }
  static std::vector<ImplId> GoalRow(const ImplementationLibrary& lib,
                                     GoalId g) {
    std::span<const ImplId> row = lib.ImplsOfGoal(g);
    return std::vector<ImplId>(row.begin(), row.end());
  }
  static void SetGoalRow(ImplementationLibrary& lib, GoalId g,
                         const std::vector<ImplId>& row) {
    ReplaceRow(lib.goal_offsets_, lib.goal_postings_, g, row);
  }

 private:
  // Replaces CSR row `r` and shifts every later offset to match.
  static void ReplaceRow(std::vector<uint32_t>& offsets,
                         std::vector<ImplId>& postings, uint32_t r,
                         const std::vector<ImplId>& row) {
    const uint32_t begin = offsets[r];
    const uint32_t old_size = offsets[r + 1] - begin;
    postings.erase(postings.begin() + begin,
                   postings.begin() + begin + old_size);
    postings.insert(postings.begin() + begin, row.begin(), row.end());
    const int64_t shift =
        static_cast<int64_t>(row.size()) - static_cast<int64_t>(old_size);
    for (size_t i = r + 1; i < offsets.size(); ++i) {
      offsets[i] = static_cast<uint32_t>(offsets[i] + shift);
    }
  }
};

namespace {

using goalrec::testing::PaperLibrary;
using goalrec::testing::RandomLibrary;

TEST(ValidateTest, PaperLibraryIsValid) {
  EXPECT_TRUE(ValidateLibrary(PaperLibrary()).ok());
}

TEST(ValidateTest, EmptyLibraryIsValid) {
  EXPECT_TRUE(ValidateLibrary(ImplementationLibrary()).ok());
}

TEST(ValidateTest, RandomLibrariesAreValid) {
  for (uint64_t seed : {1u, 2u, 3u, 7u}) {
    EXPECT_TRUE(
        ValidateLibrary(RandomLibrary(40, 15, 200, 6, seed)).ok());
  }
}

TEST(ValidateTest, GeneratedDatasetIsValid) {
  data::Dataset dataset =
      data::GenerateFortyThree(data::SmallFortyThreeOptions());
  EXPECT_TRUE(ValidateLibrary(dataset.library).ok());
}

TEST(ValidateTest, SubLibraryIsValid) {
  ImplementationLibrary lib = PaperLibrary();
  EXPECT_TRUE(ValidateLibrary(FilterByGoalIds(lib, {0, 2})).ok());
}

TEST(ValidateTest, TextMinedLibraryIsValid) {
  std::vector<textmine::HowToDocument> docs = {
      {"g1", "Do a thing. Do another thing."},
      {"g2", "Do another thing; then rest."},
  };
  EXPECT_TRUE(
      ValidateLibrary(textmine::BuildLibraryFromDocuments(docs)).ok());
}

TEST(ValidateTest, RoundTrippedLibrariesAreValid) {
  std::string path =
      (std::filesystem::temp_directory_path() / "goalrec_validate.snap")
          .string();
  ASSERT_TRUE(SaveLibraryFile(PaperLibrary(), path).ok());
  util::StatusOr<ImplementationLibrary> loaded = LoadLibraryFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(ValidateLibrary(*loaded).ok());
  std::remove(path.c_str());
}

// --- Negative cases: one corruption per check, with the exact diagnostic. ---

// One of the valid libraries of RandomLibrariesAreValid (seed 7).
ImplementationLibrary Victim() { return RandomLibrary(40, 15, 200, 6, 7); }

// The first action (in id order) whose A-GI row holds at least two
// postings.
ActionId BusyAction(const ImplementationLibrary& lib) {
  for (ActionId a = 0; a < lib.num_actions(); ++a) {
    if (lib.ImplsOfAction(a).size() >= 2) return a;
  }
  ADD_FAILURE() << "no action with two postings";
  return 0;
}

// The first implementation with at least two actions.
ImplId WideImpl(const ImplementationLibrary& lib) {
  for (ImplId p = 0; p < lib.num_implementations(); ++p) {
    if (lib.ActionsOf(p).size() >= 2) return p;
  }
  ADD_FAILURE() << "no implementation with two actions";
  return 0;
}

void ExpectRejected(const ImplementationLibrary& lib,
                    const std::string& message) {
  util::Status status = ValidateLibrary(lib);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_EQ(status.message(), message);
}

TEST(ValidateTest, RejectsDroppedActionPosting) {
  ImplementationLibrary lib = Victim();
  const ActionId a = BusyAction(lib);
  std::vector<ImplId> row = LibraryTestPeer::ActionRow(lib, a);
  const ImplId dropped = row.back();
  row.pop_back();
  LibraryTestPeer::SetActionRow(lib, a, row);
  ExpectRejected(lib, "implementation " + std::to_string(dropped) +
                          " contains action " + std::to_string(a) +
                          " but is missing from its A-GI postings");
}

TEST(ValidateTest, RejectsDuplicatedActionPosting) {
  ImplementationLibrary lib = Victim();
  const ActionId a = BusyAction(lib);
  std::vector<ImplId> row = LibraryTestPeer::ActionRow(lib, a);
  row.insert(row.begin(), row.front());
  LibraryTestPeer::SetActionRow(lib, a, row);
  ExpectRejected(lib, "A-GI postings of action " + std::to_string(a) +
                          " are not strictly ascending");
}

TEST(ValidateTest, RejectsReorderedActionPostings) {
  ImplementationLibrary lib = Victim();
  const ActionId a = BusyAction(lib);
  std::vector<ImplId> row = LibraryTestPeer::ActionRow(lib, a);
  std::swap(row[0], row[1]);
  LibraryTestPeer::SetActionRow(lib, a, row);
  ExpectRejected(lib, "A-GI postings of action " + std::to_string(a) +
                          " are not strictly ascending");
}

TEST(ValidateTest, RejectsActionPostingAtNonContainingImplementation) {
  ImplementationLibrary lib = Victim();
  const ActionId a = BusyAction(lib);
  std::vector<ImplId> row = LibraryTestPeer::ActionRow(lib, a);
  // Swap the last posting for a later implementation that lacks `a`; the
  // row stays strictly ascending.
  ImplId stranger = row.back() + 1;
  while (stranger < lib.num_implementations() &&
         util::Contains(lib.ActionsOf(stranger), a)) {
    ++stranger;
  }
  ASSERT_LT(stranger, lib.num_implementations());
  row.back() = stranger;
  LibraryTestPeer::SetActionRow(lib, a, row);
  ExpectRejected(lib, "A-GI postings of action " + std::to_string(a) +
                          " reference implementation " +
                          std::to_string(stranger) +
                          " that does not contain it");
}

TEST(ValidateTest, RejectsActionPostingOutOfRange) {
  ImplementationLibrary lib = Victim();
  const ActionId a = BusyAction(lib);
  std::vector<ImplId> row = LibraryTestPeer::ActionRow(lib, a);
  row.push_back(lib.num_implementations());
  LibraryTestPeer::SetActionRow(lib, a, row);
  ExpectRejected(lib, "A-GI postings of action " + std::to_string(a) +
                          " reference implementation " +
                          std::to_string(lib.num_implementations()) +
                          " that does not contain it");
}

TEST(ValidateTest, RejectsUnsortedImplementationRow) {
  ImplementationLibrary lib = Victim();
  const ImplId p = WideImpl(lib);
  std::span<const ActionId> actions = lib.ActionsOf(p);
  const size_t at =
      static_cast<size_t>(actions.data() - lib.ActionsOf(0).data());
  std::vector<ActionId>& arena = LibraryTestPeer::ImplActions(lib);
  std::swap(arena[at], arena[at + 1]);
  ExpectRejected(lib, "implementation " + std::to_string(p) +
                          " has an unsorted or duplicated action set");
}

TEST(ValidateTest, RejectsOutOfRangeImplementationAction) {
  ImplementationLibrary lib = Victim();
  const ImplId p = WideImpl(lib);
  std::span<const ActionId> actions = lib.ActionsOf(p);
  const size_t last = static_cast<size_t>(actions.data() -
                                          lib.ActionsOf(0).data()) +
                      actions.size() - 1;
  const ActionId bad = lib.num_actions() + 3;
  LibraryTestPeer::ImplActions(lib)[last] = bad;  // still the row's largest
  ExpectRejected(lib, "implementation " + std::to_string(p) +
                          " references action " + std::to_string(bad) +
                          " >= num_actions");
}

TEST(ValidateTest, RejectsOutOfRangeImplementationGoal) {
  ImplementationLibrary lib = Victim();
  const ImplId p = lib.num_implementations() / 2;
  LibraryTestPeer::ImplGoals(lib)[p] = lib.num_goals();
  ExpectRejected(lib, "implementation " + std::to_string(p) +
                          " has goal id " + std::to_string(lib.num_goals()) +
                          " >= num_goals");
}

TEST(ValidateTest, RejectsGoalPostingWithTheWrongGoal) {
  ImplementationLibrary lib = Victim();
  const GoalId g = 0;
  std::vector<ImplId> row = LibraryTestPeer::GoalRow(lib, g);
  ASSERT_FALSE(row.empty());
  ImplId stranger = row.back() + 1;
  while (stranger < lib.num_implementations() && lib.GoalOf(stranger) == g) {
    ++stranger;
  }
  ASSERT_LT(stranger, lib.num_implementations());
  row.back() = stranger;
  LibraryTestPeer::SetGoalRow(lib, g, row);
  ExpectRejected(lib, "G-GI postings of goal " + std::to_string(g) +
                          " reference implementation " +
                          std::to_string(stranger) + " with a different goal");
}

TEST(ValidateTest, RejectsMissingGoalPosting) {
  ImplementationLibrary lib = Victim();
  const GoalId g = lib.GoalOf(0);
  std::vector<ImplId> row = LibraryTestPeer::GoalRow(lib, g);
  row.pop_back();
  LibraryTestPeer::SetGoalRow(lib, g, row);
  ExpectRejected(lib, "G-GI index covers " +
                          std::to_string(lib.num_implementations() - 1) +
                          " implementations, expected " +
                          std::to_string(lib.num_implementations()));
}

TEST(ValidateTest, RejectsUnsortedGoalPostings) {
  ImplementationLibrary lib = Victim();
  GoalId g = 0;
  while (g + 1 < lib.num_goals() && lib.ImplsOfGoal(g).size() < 2) ++g;
  std::vector<ImplId> row = LibraryTestPeer::GoalRow(lib, g);
  std::swap(row[0], row[1]);
  LibraryTestPeer::SetGoalRow(lib, g, row);
  ExpectRejected(lib, "G-GI postings of goal " + std::to_string(g) +
                          " are not strictly ascending");
}

}  // namespace
}  // namespace goalrec::model
