#include "data/foodmart.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include <span>

#include "model/features.h"
#include "model/statistics.h"
#include "util/set_ops.h"

namespace goalrec::data {
namespace {

// The CSR library hands out spans; materialise them for gtest comparisons
// (std::span has no operator==).
model::IdSet Ids(std::span<const uint32_t> ids) {
  return model::IdSet(ids.begin(), ids.end());
}

class FoodmartTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateFoodmart(SmallFoodmartOptions()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static Dataset* dataset_;
};

Dataset* FoodmartTest::dataset_ = nullptr;

TEST_F(FoodmartTest, CountsMatchOptions) {
  FoodmartOptions options = SmallFoodmartOptions();
  EXPECT_EQ(dataset_->library.num_actions(), options.num_products);
  EXPECT_EQ(dataset_->library.num_implementations(), options.num_recipes);
  EXPECT_EQ(dataset_->users.size(), options.num_carts);
  EXPECT_EQ(dataset_->features.num_features,
            options.num_departments + options.num_categories);
  EXPECT_EQ(dataset_->features.num_actions(), options.num_products);
}

TEST_F(FoodmartTest, RecipesUseOnlyIngredientProducts) {
  FoodmartOptions options = SmallFoodmartOptions();
  for (model::ImplId p = 0; p < dataset_->library.num_implementations();
       ++p) {
    for (model::ActionId a : dataset_->library.ActionsOf(p)) {
      EXPECT_LT(a, options.num_ingredient_products);
    }
  }
}

TEST_F(FoodmartTest, RecipeSizesWithinBounds) {
  FoodmartOptions options = SmallFoodmartOptions();
  for (model::ImplId p = 0; p < dataset_->library.num_implementations();
       ++p) {
    size_t size = dataset_->library.ActionsOf(p).size();
    EXPECT_GE(size, 1u);
    EXPECT_LE(size, options.max_recipe_size);
  }
}

TEST_F(FoodmartTest, CartSizesWithinBounds) {
  FoodmartOptions options = SmallFoodmartOptions();
  for (const UserRecord& user : dataset_->users) {
    EXPECT_GE(user.full_activity.size(), options.min_cart_size);
    EXPECT_LE(user.full_activity.size(), options.max_cart_size);
    EXPECT_TRUE(util::IsSortedSet(user.full_activity));
  }
}

// ordered_activity is the same actions in the order performed (perfbench's
// session_foodmart walks carts in it): sorted, it is full_activity.
TEST_F(FoodmartTest, OrderedActivityIsAPermutationOfTheFullActivity) {
  for (const UserRecord& user : dataset_->users) {
    std::vector<model::ActionId> sorted = user.ordered_activity;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, user.full_activity);
  }
}

TEST_F(FoodmartTest, CartsHaveNoTrueGoals) {
  for (const UserRecord& user : dataset_->users) {
    EXPECT_TRUE(user.true_goals.empty());
  }
}

TEST_F(FoodmartTest, EveryProductHasDepartmentAndSubcategory) {
  FoodmartOptions options = SmallFoodmartOptions();
  for (const model::IdSet& features : dataset_->features.features) {
    ASSERT_EQ(features.size(), 2u);
    EXPECT_LT(features[0], options.num_departments);         // department
    EXPECT_GE(features[1], options.num_departments);         // subcategory
    EXPECT_LT(features[1],
              options.num_departments + options.num_categories);
  }
}

TEST_F(FoodmartTest, SiblingSubcategoriesShareTheirDepartment) {
  // Two products of the same subcategory have similarity 1; products in
  // sibling subcategories of one department share exactly the department
  // feature (similarity 0.5) — the graded structure Table 5 measures.
  FoodmartOptions options = SmallFoodmartOptions();
  uint32_t same_cat_a = 0;
  uint32_t same_cat_b = options.num_categories;  // same round-robin slot
  EXPECT_DOUBLE_EQ(
      model::FeatureSimilarity(dataset_->features, same_cat_a, same_cat_b),
      1.0);
}

TEST_F(FoodmartTest, ConnectivityIsHigh) {
  // The FoodMart regime: actions participate in many implementations. For
  // the small instance connectivity is ~600·5/48 ≈ 60; the full-size
  // defaults reach ≈1.2K (asserted in the bench harness, not here).
  model::LibraryStats stats = model::ComputeStats(dataset_->library);
  EXPECT_GT(stats.connectivity, 20.0);
}

TEST_F(FoodmartTest, DeterministicForSeed) {
  Dataset again = GenerateFoodmart(SmallFoodmartOptions());
  ASSERT_EQ(again.users.size(), dataset_->users.size());
  for (size_t i = 0; i < again.users.size(); ++i) {
    EXPECT_EQ(again.users[i].full_activity, dataset_->users[i].full_activity);
  }
  ASSERT_EQ(again.library.num_implementations(),
            dataset_->library.num_implementations());
  for (model::ImplId p = 0; p < again.library.num_implementations(); ++p) {
    EXPECT_EQ(Ids(again.library.ActionsOf(p)),
              Ids(dataset_->library.ActionsOf(p)));
  }
}

TEST_F(FoodmartTest, DifferentSeedsProduceDifferentData) {
  FoodmartOptions options = SmallFoodmartOptions();
  options.seed = 777;
  Dataset other = GenerateFoodmart(options);
  size_t differing = 0;
  for (model::ImplId p = 0; p < other.library.num_implementations(); ++p) {
    if (Ids(other.library.ActionsOf(p)) !=
        Ids(dataset_->library.ActionsOf(p))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(FoodmartTest, DefaultCustomersAreAllDistinct) {
  std::set<uint32_t> ids;
  for (const UserRecord& user : dataset_->users) {
    ids.insert(user.customer_id);
  }
  EXPECT_EQ(ids.size(), dataset_->users.size());
}

TEST(FoodmartRepeatCustomerTest, GroupsCartsWithSharedTaste) {
  FoodmartOptions options = SmallFoodmartOptions();
  options.repeat_customer_fraction = 0.7;
  Dataset dataset = GenerateFoodmart(options);
  std::map<uint32_t, uint32_t> carts_per_customer;
  for (const UserRecord& user : dataset.users) {
    ++carts_per_customer[user.customer_id];
  }
  uint32_t multi = 0;
  for (const auto& [customer, count] : carts_per_customer) {
    EXPECT_LE(count, options.max_carts_per_customer);
    if (count >= 2) ++multi;
  }
  EXPECT_GT(multi, 20u);  // a healthy share of repeat customers
  EXPECT_LT(carts_per_customer.size(), dataset.users.size());
  // Customer ids are dense.
  EXPECT_EQ(carts_per_customer.rbegin()->first + 1,
            carts_per_customer.size());
}

TEST(FoodmartRepeatCustomerTest, RepeatCartsOverlapMoreThanStrangers) {
  // The taste mechanism must make a customer's carts measurably more alike
  // than two random carts — the signal Figure 4's protocol relies on.
  FoodmartOptions options = SmallFoodmartOptions();
  options.num_carts = 400;
  options.repeat_customer_fraction = 0.7;
  options.staple_fraction = 0.0;  // isolate the taste effect
  Dataset dataset = GenerateFoodmart(options);
  std::map<uint32_t, std::vector<const UserRecord*>> by_customer;
  for (const UserRecord& user : dataset.users) {
    by_customer[user.customer_id].push_back(&user);
  }
  double same_overlap = 0.0;
  size_t same_pairs = 0;
  for (const auto& [customer, carts] : by_customer) {
    for (size_t i = 0; i < carts.size(); ++i) {
      for (size_t j = i + 1; j < carts.size(); ++j) {
        same_overlap += static_cast<double>(util::IntersectionSize(
            carts[i]->full_activity, carts[j]->full_activity));
        ++same_pairs;
      }
    }
  }
  ASSERT_GT(same_pairs, 0u);
  double stranger_overlap = 0.0;
  size_t stranger_pairs = 0;
  for (size_t i = 0; i + 1 < dataset.users.size() && stranger_pairs < 2000;
       i += 2) {
    const UserRecord& a = dataset.users[i];
    const UserRecord& b = dataset.users[i + 1];
    if (a.customer_id == b.customer_id) continue;
    stranger_overlap += static_cast<double>(
        util::IntersectionSize(a.full_activity, b.full_activity));
    ++stranger_pairs;
  }
  ASSERT_GT(stranger_pairs, 0u);
  EXPECT_GT(same_overlap / static_cast<double>(same_pairs),
            1.5 * stranger_overlap / static_cast<double>(stranger_pairs));
}

TEST(FoodmartOptionsTest, FullSizeDefaultsMatchPaper) {
  FoodmartOptions options;
  EXPECT_EQ(options.num_products, 1560u);
  EXPECT_EQ(options.num_categories, 128u);
  EXPECT_EQ(options.num_recipes, 56500u);
  EXPECT_EQ(options.num_carts, 20500u);
}

TEST(FoodmartDeathTest, InvalidOptionsAbort) {
  FoodmartOptions options = SmallFoodmartOptions();
  options.num_ingredient_products = options.num_products + 1;
  EXPECT_DEATH({ GenerateFoodmart(options); }, "CHECK failed");
}

}  // namespace
}  // namespace goalrec::data
