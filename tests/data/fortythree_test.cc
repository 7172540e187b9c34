#include "data/fortythree.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "model/statistics.h"
#include "util/set_ops.h"

namespace goalrec::data {
namespace {

class FortyThreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateFortyThree(SmallFortyThreeOptions()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* FortyThreeTest::dataset_ = nullptr;

TEST_F(FortyThreeTest, CountsMatchOptions) {
  FortyThreeOptions options = SmallFortyThreeOptions();
  EXPECT_EQ(dataset_->library.num_actions(), options.num_actions);
  EXPECT_EQ(dataset_->library.num_goals(), options.num_goals);
  EXPECT_EQ(dataset_->library.num_implementations(),
            options.num_implementations);
  uint32_t expected_users = 0;
  for (uint32_t c : options.users_per_goal_count) expected_users += c;
  EXPECT_EQ(dataset_->users.size(), expected_users);
}

TEST_F(FortyThreeTest, NoDomainFeatures) {
  EXPECT_TRUE(dataset_->features.empty());
}

TEST_F(FortyThreeTest, GoalCountDistributionMatchesPaperBuckets) {
  FortyThreeOptions options = SmallFortyThreeOptions();
  std::vector<uint32_t> buckets(4, 0);
  for (const UserRecord& user : dataset_->users) {
    size_t goals = user.true_goals.size();
    ASSERT_GE(goals, 1u);
    if (goals >= 4) {
      ++buckets[3];
      EXPECT_LE(goals, 6u);
    } else {
      ++buckets[goals - 1];
    }
  }
  EXPECT_EQ(buckets[0], options.users_per_goal_count[0]);
  EXPECT_EQ(buckets[1], options.users_per_goal_count[1]);
  EXPECT_EQ(buckets[2], options.users_per_goal_count[2]);
  EXPECT_EQ(buckets[3], options.users_per_goal_count[3]);
}

TEST_F(FortyThreeTest, EveryGoalHasAtLeastOneImplementation) {
  for (model::GoalId g = 0; g < dataset_->library.num_goals(); ++g) {
    EXPECT_GE(dataset_->library.ImplsOfGoal(g).size(), 1u);
  }
}

TEST_F(FortyThreeTest, UserActivityCoversOneImplementationPerTrueGoal) {
  for (const UserRecord& user : dataset_->users) {
    for (model::GoalId g : user.true_goals) {
      bool covered = false;
      for (model::ImplId p : dataset_->library.ImplsOfGoal(g)) {
        if (util::IsSubset(dataset_->library.ActionsOf(p),
                           user.full_activity)) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "goal " << g << " has no covered impl";
    }
  }
}

// ordered_activity is the same actions in the order performed: sorted, it
// is full_activity.
TEST_F(FortyThreeTest, OrderedActivityIsAPermutationOfTheFullActivity) {
  for (const UserRecord& user : dataset_->users) {
    std::vector<model::ActionId> sorted = user.ordered_activity;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, user.full_activity);
  }
}

TEST_F(FortyThreeTest, ConnectivityIsLow) {
  // The 43T regime: two orders of magnitude below FoodMart (see the header
  // note on the paper's mutually constraining statistics).
  model::LibraryStats stats = model::ComputeStats(dataset_->library);
  EXPECT_GT(stats.connectivity, 1.0);
  EXPECT_LT(stats.connectivity, 20.0);
}

TEST_F(FortyThreeTest, ActionsConfinedToFamilies) {
  // Every action's goal space must stay small (the "narrow families"
  // property the paper contrasts against FoodMart ingredients).
  FortyThreeOptions options = SmallFortyThreeOptions();
  uint32_t num_families =
      std::max<uint32_t>(1, options.num_actions / options.family_size);
  uint32_t goals_per_family =
      (options.num_goals + num_families - 1) / num_families;
  for (model::ActionId a = 0; a < dataset_->library.num_actions(); ++a) {
    model::IdSet goal_space = dataset_->library.GoalSpaceOfAction(a);
    EXPECT_LE(goal_space.size(), goals_per_family);
  }
}

TEST_F(FortyThreeTest, DeterministicForSeed) {
  Dataset again = GenerateFortyThree(SmallFortyThreeOptions());
  ASSERT_EQ(again.users.size(), dataset_->users.size());
  for (size_t i = 0; i < again.users.size(); ++i) {
    EXPECT_EQ(again.users[i].full_activity, dataset_->users[i].full_activity);
    EXPECT_EQ(again.users[i].true_goals, dataset_->users[i].true_goals);
  }
}

TEST(FortyThreeOptionsTest, FullSizeDefaultsMatchPaper) {
  FortyThreeOptions options;
  EXPECT_EQ(options.num_goals, 3747u);
  EXPECT_EQ(options.num_actions, 5456u);
  EXPECT_EQ(options.num_implementations, 18047u);
  EXPECT_EQ(options.users_per_goal_count,
            (std::vector<uint32_t>{5047, 1806, 623, 595}));
}

TEST(FortyThreeDeathTest, InvalidOptionsAbort) {
  FortyThreeOptions options = SmallFortyThreeOptions();
  options.num_implementations = options.num_goals - 1;
  EXPECT_DEATH({ GenerateFortyThree(options); }, "CHECK failed");
}

}  // namespace
}  // namespace goalrec::data
