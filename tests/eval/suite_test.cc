#include "eval/suite.h"

#include <gtest/gtest.h>

#include "data/foodmart.h"
#include "data/fortythree.h"
#include "data/splitter.h"
#include "util/set_ops.h"

namespace goalrec::eval {
namespace {

SuiteOptions FastSuiteOptions() {
  SuiteOptions options;
  options.als.num_factors = 4;
  options.als.num_iterations = 2;
  return options;
}

data::Dataset TinyFoodmart() {
  data::FoodmartOptions options = data::SmallFoodmartOptions();
  options.num_recipes = 150;
  options.num_carts = 40;
  return data::GenerateFoodmart(options);
}

std::vector<model::Activity> VisibleActivities(
    const std::vector<data::EvalUser>& users) {
  std::vector<model::Activity> inputs;
  for (const data::EvalUser& user : users) inputs.push_back(user.visible);
  return inputs;
}

TEST(SuiteTest, FoodmartRosterIncludesContent) {
  data::Dataset dataset = TinyFoodmart();
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 1);
  Suite suite(&dataset, VisibleActivities(users), FastSuiteOptions());
  std::vector<std::string> names = suite.names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"Focus_cmp", "Focus_cl", "Breadth",
                                      "BestMatch", "CF_kNN", "CF_MF",
                                      "Content"}));
}

TEST(SuiteTest, FortyThreeRosterSkipsContent) {
  data::Dataset dataset =
      data::GenerateFortyThree(data::SmallFortyThreeOptions());
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.3, 1);
  Suite suite(&dataset, VisibleActivities(users), FastSuiteOptions());
  std::vector<std::string> names = suite.names();
  EXPECT_EQ(names,
            (std::vector<std::string>{"Focus_cmp", "Focus_cl", "Breadth",
                                      "BestMatch", "CF_kNN", "CF_MF"}));
}

TEST(SuiteTest, OptionalAnchorsCanBeEnabled) {
  data::Dataset dataset = TinyFoodmart();
  SuiteOptions options = FastSuiteOptions();
  options.include_popularity = true;
  options.include_association_rules = true;
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 1);
  Suite suite(&dataset, VisibleActivities(users), options);
  std::vector<std::string> names = suite.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "Popularity"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "AssocRules"), names.end());
}

TEST(SuiteTest, ExtensionRosterMembers) {
  data::Dataset dataset = TinyFoodmart();
  SuiteOptions options = FastSuiteOptions();
  options.include_cf_item_knn = true;
  options.include_hybrid = true;
  options.include_mmr = true;
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 9);
  Suite suite(&dataset, VisibleActivities(users), options);
  std::vector<std::string> names = suite.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "CF_itemKNN"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Hybrid(Breadth)"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "MMR(Breadth)"),
            names.end());
}

TEST(SuiteTest, WrappersSkippedWithoutFeatures) {
  data::Dataset dataset =
      data::GenerateFortyThree(data::SmallFortyThreeOptions());
  SuiteOptions options = FastSuiteOptions();
  options.include_hybrid = true;
  options.include_mmr = true;
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.3, 9);
  Suite suite(&dataset, VisibleActivities(users), options);
  for (const std::string& name : suite.names()) {
    EXPECT_EQ(name.find("Hybrid"), std::string::npos);
    EXPECT_EQ(name.find("MMR"), std::string::npos);
  }
}

TEST(SuiteTest, GoalBasedOnlySuiteNeedsNoTraining) {
  data::Dataset dataset = TinyFoodmart();
  SuiteOptions options;
  options.include_cf_knn = false;
  options.include_cf_mf = false;
  options.include_content = false;
  Suite suite(&dataset, {}, options);
  EXPECT_EQ(suite.size(), 4u);
}

TEST(SuiteTest, RunAllShapesAndConstraints) {
  data::Dataset dataset = TinyFoodmart();
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 2);
  std::vector<model::Activity> inputs = VisibleActivities(users);
  Suite suite(&dataset, inputs, FastSuiteOptions());
  std::vector<MethodResult> results = suite.RunAll(inputs, 5);
  ASSERT_EQ(results.size(), suite.size());
  for (const MethodResult& result : results) {
    ASSERT_EQ(result.lists.size(), inputs.size());
    for (size_t u = 0; u < inputs.size(); ++u) {
      EXPECT_LE(result.lists[u].size(), 5u);
      for (const core::ScoredAction& entry : result.lists[u]) {
        EXPECT_FALSE(util::Contains(inputs[u], entry.action))
            << result.name << " recommended an input action";
      }
    }
  }
}

TEST(SuiteTest, RunAllDeterministicAcrossThreadCounts) {
  data::Dataset dataset = TinyFoodmart();
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 3);
  std::vector<model::Activity> inputs = VisibleActivities(users);
  Suite suite(&dataset, inputs, FastSuiteOptions());
  std::vector<MethodResult> serial = suite.RunAll(inputs, 5, 1);
  std::vector<MethodResult> parallel = suite.RunAll(inputs, 5, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t m = 0; m < serial.size(); ++m) {
    EXPECT_EQ(serial[m].lists, parallel[m].lists) << serial[m].name;
  }
}

// RunAll answers every method through RecommendPooled on one leased
// workspace per cart; each method's own Recommend is the reference. For
// Focus and Best Match that side still builds a sorted QueryContext, so two
// independent code paths must agree bit for bit.
TEST(SuiteTest, RunAllMatchesEachRecommendersOwnAnswer) {
  data::Dataset dataset = TinyFoodmart();
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 5);
  std::vector<model::Activity> inputs = VisibleActivities(users);
  SuiteOptions options = FastSuiteOptions();
  options.include_popularity = true;
  options.include_association_rules = true;
  options.include_cf_item_knn = true;
  options.include_hybrid = true;
  options.include_mmr = true;
  Suite suite(&dataset, inputs, options);
  inputs.insert(inputs.begin() + 1, model::Activity{});  // an empty cart
  // k = 0, the usual list length, and more than any method has candidates.
  const size_t all = dataset.library.num_actions() + 1;
  for (size_t k : {size_t{0}, size_t{10}, all}) {
    for (size_t threads : {1u, 4u}) {
      std::vector<MethodResult> results = suite.RunAll(inputs, k, threads);
      ASSERT_EQ(results.size(), suite.size());
      for (size_t m = 0; m < suite.size(); ++m) {
        ASSERT_EQ(results[m].lists.size(), inputs.size());
        for (size_t u = 0; u < inputs.size(); ++u) {
          EXPECT_EQ(results[m].lists[u],
                    suite.recommender(m).Recommend(inputs[u], k))
              << results[m].name << " cart " << u << " k " << k << " threads "
              << threads;
        }
      }
    }
  }
  EXPECT_LE(suite.workspaces_created(), 4u);
}

TEST(SuiteTest, SnapshotPinnedSuiteMatchesDatasetSuite) {
  data::Dataset dataset = TinyFoodmart();
  std::vector<data::EvalUser> users = data::SplitDataset(dataset, 0.5, 4);
  std::vector<model::Activity> inputs = VisibleActivities(users);
  SuiteOptions options;
  options.include_cf_knn = false;
  options.include_cf_mf = false;
  options.include_content = false;
  Suite from_dataset(&dataset, inputs, options);

  // A snapshot-pinned suite co-owns the library; feature-dependent methods
  // are dropped automatically (a bare snapshot has no feature table), and
  // the goal-based strategies must answer identically to the dataset suite.
  SuiteOptions wants_features = options;
  wants_features.include_content = true;
  wants_features.include_hybrid = true;
  wants_features.include_mmr = true;
  Suite pinned(model::MakeSnapshot(dataset.library, "suite"), inputs,
               wants_features);
  EXPECT_EQ(pinned.names(), from_dataset.names());

  std::vector<MethodResult> want = from_dataset.RunAll(inputs, 5, 2);
  std::vector<MethodResult> got = pinned.RunAll(inputs, 5, 2);
  ASSERT_EQ(got.size(), want.size());
  for (size_t m = 0; m < want.size(); ++m) {
    EXPECT_EQ(got[m].lists, want[m].lists) << want[m].name;
  }
  // Pooled workspaces are per worker thread, not per query.
  EXPECT_LE(pinned.workspaces_created(), 2u);
  EXPECT_GE(pinned.workspaces_created(), 1u);
}

}  // namespace
}  // namespace goalrec::eval
