#include "baselines/als.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "util/linalg.h"
#include "util/random.h"

namespace goalrec::baselines {
namespace {

AlsOptions FastOptions() {
  AlsOptions options;
  options.num_factors = 8;
  options.num_iterations = 8;
  return options;
}

TEST(AlsTest, Name) {
  InteractionData data({{0}}, 1);
  EXPECT_EQ(AlsRecommender(&data, FastOptions()).name(), "CF_MF");
}

TEST(AlsTest, ReconstructsBlockStructure) {
  // Two disjoint user communities; a new user from community A must be
  // recommended community-A items.
  std::vector<model::Activity> users;
  for (int i = 0; i < 12; ++i) users.push_back({0, 1, 2});       // community A
  for (int i = 0; i < 12; ++i) users.push_back({3, 4, 5});       // community B
  InteractionData data(std::move(users), 6);
  AlsRecommender als(&data, FastOptions());
  core::RecommendationList list = als.Recommend({0, 1}, 2);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].action, 2u);
  EXPECT_TRUE(list[1].action == 3u || list[1].action == 4u ||
              list[1].action == 5u);
  EXPECT_GT(list[0].score, list[1].score);
}

TEST(AlsTest, PredictsHigherForObservedPattern) {
  std::vector<model::Activity> users;
  for (int i = 0; i < 10; ++i) users.push_back({0, 1});
  for (int i = 0; i < 10; ++i) users.push_back({2, 3});
  InteractionData data(std::move(users), 4);
  AlsRecommender als(&data, FastOptions());
  util::DenseVector u = als.FoldInUser({0});
  EXPECT_GT(als.Predict(u, 1), als.Predict(u, 3));
}

TEST(AlsTest, FoldInOfEmptyActivityIsZeroVector) {
  InteractionData data({{0, 1}}, 2);
  AlsRecommender als(&data, FastOptions());
  util::DenseVector u = als.FoldInUser({});
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(AlsTest, DeterministicForFixedSeed) {
  std::vector<model::Activity> users = {{0, 1}, {1, 2}, {0, 2}};
  InteractionData data(users, 3);
  AlsRecommender a(&data, FastOptions());
  AlsRecommender b(&data, FastOptions());
  EXPECT_EQ(a.Recommend({0}, 3), b.Recommend({0}, 3));
}

TEST(AlsTest, MoreIterationsDoNotIncreaseObjective) {
  std::vector<model::Activity> users = {{0, 1}, {1, 2}, {0, 2}, {0, 1, 2},
                                        {3},    {3, 4}, {4}};
  InteractionData data(users, 5);
  AlsOptions few = FastOptions();
  few.num_iterations = 1;
  AlsOptions many = FastOptions();
  many.num_iterations = 12;
  double objective_few = AlsRecommender(&data, few).Objective();
  double objective_many = AlsRecommender(&data, many).Objective();
  EXPECT_LE(objective_many, objective_few + 1e-9);
}

TEST(AlsTest, DoesNotRecommendQueryActions) {
  std::vector<model::Activity> users = {{0, 1, 2}, {1, 2, 3}};
  InteractionData data(users, 4);
  AlsRecommender als(&data, FastOptions());
  for (const core::ScoredAction& entry : als.Recommend({1, 2}, 10)) {
    EXPECT_NE(entry.action, 1u);
    EXPECT_NE(entry.action, 2u);
  }
}

TEST(AlsTest, EmptyQueryGivesEmptyList) {
  InteractionData data({{0}}, 1);
  AlsRecommender als(&data, FastOptions());
  EXPECT_TRUE(als.Recommend({}, 5).empty());
}

TEST(AlsTest, RespectsK) {
  std::vector<model::Activity> users = {{0, 1, 2, 3, 4, 5}};
  InteractionData data(users, 6);
  AlsRecommender als(&data, FastOptions());
  EXPECT_EQ(als.Recommend({0}, 3).size(), 3u);
}

// Fold-in on a seeded interaction matrix, bit for bit against the same
// solve built by hand in this build: the action factors read back through
// Predict on unit vectors, their Gram matrix, then SolveRow's steps. A Gram
// matrix of the user factors, or of the action factors of an earlier
// iteration, changes the bits. Both sides round alike, so the check holds
// wherever the compiler fuses multiply-adds.
TEST(AlsTest, FoldInSolvesAgainstTheFinalActionGram) {
  util::Rng rng(29);
  std::vector<model::Activity> users;
  for (int u = 0; u < 40; ++u) {
    std::vector<uint32_t> picked =
        rng.SampleWithoutReplacement(12, 1 + rng.UniformUint32(4));
    std::sort(picked.begin(), picked.end());
    users.push_back(model::Activity(picked.begin(), picked.end()));
  }
  InteractionData data(std::move(users), 12);
  const AlsOptions options = FastOptions();
  AlsRecommender als(&data, options);

  const size_t dim = options.num_factors;
  std::vector<util::DenseVector> factors(data.num_actions());
  for (model::ActionId a = 0; a < data.num_actions(); ++a) {
    for (size_t d = 0; d < dim; ++d) {
      util::DenseVector unit(dim, 0.0);
      unit[d] = 1.0;
      factors[a].push_back(als.Predict(unit, a));
    }
  }
  util::DenseMatrix system(dim, dim);
  for (const util::DenseVector& f : factors) system.AddOuterProduct(f, 1.0);
  const model::Activity activity = {1, 4, 7};
  util::DenseVector rhs(dim, 0.0);
  for (model::ActionId j : activity) {
    system.AddOuterProduct(factors[j], options.alpha);
    for (size_t d = 0; d < dim; ++d) {
      rhs[d] += (1.0 + options.alpha) * factors[j][d];
    }
  }
  system.AddToDiagonal(kAlsLambda * static_cast<double>(activity.size()) +
                       1e-9);
  util::StatusOr<util::DenseVector> expected = util::CholeskySolve(system, rhs);
  ASSERT_TRUE(expected.ok());

  const util::DenseVector user = als.FoldInUser(activity);
  ASSERT_EQ(user.size(), dim);
  for (size_t d = 0; d < dim; ++d) {
    EXPECT_EQ(std::bit_cast<uint64_t>(user[d]),
              std::bit_cast<uint64_t>((*expected)[d]))
        << "d = " << d;
  }
  const core::RecommendationList top = als.Recommend(activity, 4);
  ASSERT_EQ(top.size(), 4u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(top[i].score),
              std::bit_cast<uint64_t>(als.Predict(*expected, top[i].action)))
        << "rank " << i;
  }
}

}  // namespace
}  // namespace goalrec::baselines
