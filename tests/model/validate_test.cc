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
  template <typename Postings>
  static void ReplaceRow(std::vector<uint32_t>& offsets, Postings& postings,
                         uint32_t r, const std::vector<ImplId>& row) {
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
//
// Every case runs twice: on a small library, which ValidateLibrary checks in
// one pass, and on one above kParallelMinPostings, which it checks in blocks
// over implementation and goal ranges. In the large one the corruption sits
// in the last hundredth of the implementations, goals or postings it
// touches, so in the last block of any block count up to 100; the
// diagnostic must be the one a single pass names.

struct Victim {
  ImplementationLibrary lib;
  bool large = false;
};

std::vector<Victim> Victims() {
  std::vector<Victim> victims(2);
  // One of the valid libraries of RandomLibrariesAreValid (seed 7).
  victims[0].lib = RandomLibrary(40, 15, 200, 6, 7);
  victims[1].lib = RandomLibrary(2000, 3001, 48001, 11, 7);
  victims[1].large = true;
  EXPECT_GE(victims[1].lib.num_postings(), kParallelMinPostings);
  EXPECT_TRUE(ValidateLibrary(victims[1].lib).ok());
  return victims;
}

// True when implementation id `p` lies in the last hundredth of `lib`'s.
bool InTail(const ImplementationLibrary& lib, ImplId p) {
  return p >= lib.num_implementations() - lib.num_implementations() / 100;
}

// The first action (in id order) whose A-GI row holds at least two
// postings; in a large victim, also with its last two postings in the tail.
ActionId BusyAction(const Victim& v) {
  for (ActionId a = 0; a < v.lib.num_actions(); ++a) {
    std::span<const ImplId> row = v.lib.ImplsOfAction(a);
    if (row.size() >= 2 && (!v.large || InTail(v.lib, row[row.size() - 2]))) {
      return a;
    }
  }
  ADD_FAILURE() << "no action with two postings";
  return 0;
}

// The first implementation with at least two actions; in a large victim,
// the last.
ImplId WideImpl(const Victim& v) {
  const ImplId n = v.lib.num_implementations();
  for (ImplId i = 0; i < n; ++i) {
    const ImplId p = v.large ? n - 1 - i : i;
    if (v.lib.ActionsOf(p).size() >= 2) return p;
  }
  ADD_FAILURE() << "no implementation with two actions";
  return 0;
}

// The first goal (in id order) whose G-GI row holds at least `min_size`
// postings and whose last posting is not the last implementation; in a
// large victim, the last such goal.
GoalId GoalWithRow(const Victim& v, size_t min_size) {
  const GoalId n = v.lib.num_goals();
  for (GoalId i = 0; i < n; ++i) {
    const GoalId g = v.large ? n - 1 - i : i;
    std::span<const ImplId> row = v.lib.ImplsOfGoal(g);
    if (row.size() >= min_size &&
        row.back() + 1 < v.lib.num_implementations()) {
      return g;
    }
  }
  ADD_FAILURE() << "no goal with " << min_size << " postings";
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
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ActionId a = BusyAction(v);
    std::vector<ImplId> row = LibraryTestPeer::ActionRow(v.lib, a);
    const ImplId dropped = row.back();
    row.pop_back();
    LibraryTestPeer::SetActionRow(v.lib, a, row);
    ExpectRejected(v.lib, "implementation " + std::to_string(dropped) +
                              " contains action " + std::to_string(a) +
                              " but is missing from its A-GI postings");
  }
}

TEST(ValidateTest, RejectsDuplicatedActionPosting) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ActionId a = BusyAction(v);
    std::vector<ImplId> row = LibraryTestPeer::ActionRow(v.lib, a);
    if (v.large) {
      row.push_back(row.back());
    } else {
      row.insert(row.begin(), row.front());
    }
    LibraryTestPeer::SetActionRow(v.lib, a, row);
    ExpectRejected(v.lib, "A-GI postings of action " + std::to_string(a) +
                              " are not strictly ascending");
  }
}

TEST(ValidateTest, RejectsReorderedActionPostings) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ActionId a = BusyAction(v);
    std::vector<ImplId> row = LibraryTestPeer::ActionRow(v.lib, a);
    if (v.large) {
      std::swap(row[row.size() - 2], row[row.size() - 1]);
    } else {
      std::swap(row[0], row[1]);
    }
    LibraryTestPeer::SetActionRow(v.lib, a, row);
    ExpectRejected(v.lib, "A-GI postings of action " + std::to_string(a) +
                              " are not strictly ascending");
  }
}

TEST(ValidateTest, RejectsActionPostingAtNonContainingImplementation) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ActionId a = BusyAction(v);
    std::vector<ImplId> row = LibraryTestPeer::ActionRow(v.lib, a);
    // Swap the last posting for a later implementation that lacks `a`; the
    // row stays strictly ascending.
    ImplId stranger = row.back() + 1;
    while (stranger < v.lib.num_implementations() &&
           util::Contains(v.lib.ActionsOf(stranger), a)) {
      ++stranger;
    }
    ASSERT_LT(stranger, v.lib.num_implementations());
    row.back() = stranger;
    LibraryTestPeer::SetActionRow(v.lib, a, row);
    ExpectRejected(v.lib, "A-GI postings of action " + std::to_string(a) +
                              " reference implementation " +
                              std::to_string(stranger) +
                              " that does not contain it");
  }
}

TEST(ValidateTest, RejectsActionPostingOutOfRange) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ActionId a = BusyAction(v);
    std::vector<ImplId> row = LibraryTestPeer::ActionRow(v.lib, a);
    row.push_back(v.lib.num_implementations());
    LibraryTestPeer::SetActionRow(v.lib, a, row);
    ExpectRejected(v.lib, "A-GI postings of action " + std::to_string(a) +
                              " reference implementation " +
                              std::to_string(v.lib.num_implementations()) +
                              " that does not contain it");
  }
}

TEST(ValidateTest, RejectsUnsortedImplementationRow) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ImplId p = WideImpl(v);
    std::span<const ActionId> actions = v.lib.ActionsOf(p);
    const size_t at =
        static_cast<size_t>(actions.data() - v.lib.ActionsOf(0).data());
    std::vector<ActionId>& arena = LibraryTestPeer::ImplActions(v.lib);
    std::swap(arena[at], arena[at + 1]);
    ExpectRejected(v.lib, "implementation " + std::to_string(p) +
                              " has an unsorted or duplicated action set");
  }
}

TEST(ValidateTest, RejectsOutOfRangeImplementationAction) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ImplId p = WideImpl(v);
    std::span<const ActionId> actions = v.lib.ActionsOf(p);
    const size_t last = static_cast<size_t>(actions.data() -
                                            v.lib.ActionsOf(0).data()) +
                        actions.size() - 1;
    const ActionId bad = v.lib.num_actions() + 3;
    LibraryTestPeer::ImplActions(v.lib)[last] = bad;  // still the largest
    ExpectRejected(v.lib, "implementation " + std::to_string(p) +
                              " references action " + std::to_string(bad) +
                              " >= num_actions");
  }
}

TEST(ValidateTest, RejectsOutOfRangeImplementationGoal) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const ImplId n = v.lib.num_implementations();
    const ImplId p = v.large ? n - 1 : n / 2;
    LibraryTestPeer::ImplGoals(v.lib)[p] = v.lib.num_goals();
    ExpectRejected(v.lib, "implementation " + std::to_string(p) +
                              " has goal id " +
                              std::to_string(v.lib.num_goals()) +
                              " >= num_goals");
  }
}

TEST(ValidateTest, RejectsGoalPostingWithTheWrongGoal) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const GoalId g = GoalWithRow(v, 1);
    std::vector<ImplId> row = LibraryTestPeer::GoalRow(v.lib, g);
    ImplId stranger = row.back() + 1;
    while (stranger < v.lib.num_implementations() &&
           v.lib.GoalOf(stranger) == g) {
      ++stranger;
    }
    ASSERT_LT(stranger, v.lib.num_implementations());
    row.back() = stranger;
    LibraryTestPeer::SetGoalRow(v.lib, g, row);
    ExpectRejected(v.lib, "G-GI postings of goal " + std::to_string(g) +
                              " reference implementation " +
                              std::to_string(stranger) +
                              " with a different goal");
  }
}

TEST(ValidateTest, RejectsMissingGoalPosting) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const GoalId g =
        v.large ? GoalWithRow(v, 1) : v.lib.GoalOf(0);
    std::vector<ImplId> row = LibraryTestPeer::GoalRow(v.lib, g);
    row.pop_back();
    LibraryTestPeer::SetGoalRow(v.lib, g, row);
    ExpectRejected(v.lib, "G-GI index covers " +
                              std::to_string(v.lib.num_implementations() - 1) +
                              " implementations, expected " +
                              std::to_string(v.lib.num_implementations()));
  }
}

TEST(ValidateTest, RejectsUnsortedGoalPostings) {
  for (Victim& v : Victims()) {
    SCOPED_TRACE(v.large ? "large" : "small");
    const GoalId g = GoalWithRow(v, 2);
    std::vector<ImplId> row = LibraryTestPeer::GoalRow(v.lib, g);
    if (v.large) {
      std::swap(row[row.size() - 2], row[row.size() - 1]);
    } else {
      std::swap(row[0], row[1]);
    }
    LibraryTestPeer::SetGoalRow(v.lib, g, row);
    ExpectRejected(v.lib, "G-GI postings of goal " + std::to_string(g) +
                              " are not strictly ascending");
  }
}

}  // namespace
}  // namespace goalrec::model
