// Hostile query input through the two query entry points. Every goal
// strategy (Focus_cmp, Focus_cl, Breadth, Best Match under all six
// variants) and its 4-shard ShardedRecommender answers through Recommend,
// RecommendPooled on a warm workspace, and RecommendPooled with a null one.
// Each answer must equal the naive reference on the normalised activity
// with unknown ids dropped: unsorted and duplicate ids, ids the library
// does not know, an empty activity, k = 0 and k far beyond the candidates.

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "core/strategy.h"
#include "model/library.h"
#include "model/sharding.h"
#include "serve/sharded.h"
#include "testing/differential.h"
#include "testing/fixtures.h"
#include "testing/reference.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace goalrec::testing {
namespace {

// One recommender under test and the oracle configuration it must match.
struct Subject {
  std::string name;
  std::unique_ptr<const core::Recommender> recommender;
  core::Strategy strategy;
  core::BestMatchOptions best_match;
};

// Every strategy and variant, plain and fanned out over 4 shards of
// `library`.
class Roster {
 public:
  explicit Roster(const model::ImplementationLibrary& library)
      : library_(library),
        sharded_(model::BuildShardedSnapshot(library, /*num_shards=*/4)) {
    for (core::Strategy strategy : core::AllStrategies()) {
      for (const core::BestMatchOptions& variant : OracleVariants(strategy)) {
        const std::string name = OracleVariantName(strategy, variant);
        subjects_.push_back(Subject{name,
                                    core::MakeStrategy(library, strategy,
                                                       variant),
                                    strategy, variant});
        subjects_.push_back(Subject{
            name + "/4-shard",
            std::make_unique<serve::ShardedRecommender>(
                sharded_, strategy, &pool_, variant),
            strategy, variant});
      }
    }
  }

  // Answers `activity` through all three paths of every subject and checks
  // each answer against the oracle on the normalised activity with the ids
  // the library does not know dropped.
  void ExpectAllPathsMatchOracle(const model::Activity& activity, size_t k) {
    model::Activity known;
    for (model::ActionId a : activity) {
      if (a < library_.num_actions()) known.push_back(a);
    }
    std::sort(known.begin(), known.end());
    known.erase(std::unique(known.begin(), known.end()), known.end());
    DiffOptions strict;
    strict.strict_order = true;
    for (const Subject& s : subjects_) {
      ReferenceList expected =
          RunReference(library_, s.strategy, known, k, s.best_match);
      core::RecommendationList warm;
      s.recommender->RecommendPooled(activity, k, nullptr, &warm_ws_, warm);
      core::RecommendationList cold;
      s.recommender->RecommendPooled(activity, k, nullptr, nullptr, cold);
      const std::pair<const char*, core::RecommendationList> answers[] = {
          {"Recommend", s.recommender->Recommend(activity, k)},
          {"RecommendPooled(warm)", warm},
          {"RecommendPooled(null)", cold},
      };
      for (const auto& [path, list] : answers) {
        DiffOutcome outcome = CompareLists(list, expected, strict);
        EXPECT_TRUE(outcome.match)
            << s.name << " " << path << " (|H| = " << activity.size()
            << ", k = " << k << "): " << outcome.detail;
      }
    }
  }

 private:
  const model::ImplementationLibrary& library_;
  std::shared_ptr<const model::ShardedSnapshot> sharded_;
  util::ThreadPool pool_{2};
  // Shared by every subject and query, like a serving thread's workspace.
  core::QueryWorkspace warm_ws_;
  std::vector<Subject> subjects_;
};

model::ImplementationLibrary SweepLibrary(uint64_t seed) {
  return RandomLibrary(/*num_actions=*/40, /*num_goals=*/15,
                       /*num_impls=*/200, /*max_size=*/6, seed);
}

TEST(EntryPointsTest, UnsortedAndDuplicateIdsMatchOracle) {
  model::ImplementationLibrary library = SweepLibrary(600);
  Roster roster(library);
  roster.ExpectAllPathsMatchOracle({9, 2, 31, 2}, 10);
  roster.ExpectAllPathsMatchOracle({17, 17, 17}, 10);
  roster.ExpectAllPathsMatchOracle({30, 5, 22, 5, 1, 30, 0}, 10);
}

TEST(EntryPointsTest, EmptyActivityMatchesOracle) {
  model::ImplementationLibrary library = SweepLibrary(601);
  Roster roster(library);
  for (size_t k : {size_t{0}, size_t{1}, size_t{10}}) {
    roster.ExpectAllPathsMatchOracle({}, k);
  }
}

TEST(EntryPointsTest, UnknownIdsAreDropped) {
  model::ImplementationLibrary library = SweepLibrary(602);
  const model::ActionId n = library.num_actions();
  Roster roster(library);
  roster.ExpectAllPathsMatchOracle({n, 3, n + 5}, 10);
  roster.ExpectAllPathsMatchOracle({model::kInvalidId, 12, 7, n}, 10);
  // Only unknown ids: the same answer as an empty activity.
  roster.ExpectAllPathsMatchOracle({n, model::kInvalidId}, 10);
}

TEST(EntryPointsTest, KZeroAndKBeyondCandidatesMatchOracle) {
  model::ImplementationLibrary library = SweepLibrary(603);
  Roster roster(library);
  const size_t beyond = library.num_actions() + 7;
  for (size_t k : {size_t{0}, beyond, std::numeric_limits<size_t>::max()}) {
    roster.ExpectAllPathsMatchOracle({4, 19}, k);
    roster.ExpectAllPathsMatchOracle({25, 4, 4, library.num_actions()}, k);
  }
}

TEST(EntryPointsTest, PathsAgreeOnRandomLibraries) {
  for (uint64_t seed : {610u, 611u}) {
    model::ImplementationLibrary library =
        RandomLibrary(50, 20, 300, 6, seed);
    Roster roster(library);
    util::Rng rng(seed + 9);
    for (int trial = 0; trial < 10; ++trial) {
      roster.ExpectAllPathsMatchOracle(
          RandomActivity(50, 1 + rng.UniformUint32(6), rng), 10);
    }
  }
}

}  // namespace
}  // namespace goalrec::testing
