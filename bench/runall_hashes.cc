// Bit-identity fingerprint of the recommenders' answers. Prints one 64-bit
// hash per roster method of eval::Suite::RunAll, then one per allocating
// Recommend of the goal-based strategies, all over the same fixed FoodMart
// held-out carts. Two builds answer identically exactly when their outputs
// are byte-identical, so a refactor that must not change answers diffs this
// output before and after.
//
//   $ ./runall_hashes        # no flags; a few seconds
//
// Data: GenerateFoodmart with 600 products, 64 categories, 260 ingredient
// products, 8000 recipes, 600 carts, seed 42 (every other option default).
// Every kHoldOutEvery-th non-empty cart is held out as a query; the others
// train the CF baselines. Lists are top-10 (kK).
//
// Hash chain. Mix(h, v) = SplitMix64(h ^ v), with the SplitMix64 finaliser
// below. A list hashes as h = Mix(size, 0), then per entry in rank order
// h = Mix(h, action), h = Mix(h, bit pattern of the score double). A method
// hashes as h = Mix(number of carts, 0), then h = Mix(h, list hash) per
// cart in held-out order. Scores enter bit for bit, so a change in the last
// ulp changes the hash.
//
// Output, one line each:
//   runall <method> <hash>      Suite::RunAll (RecommendPooled), 1 thread
//   recommend <method> <hash>   allocating Recommend: Focus_cmp, Focus_cl,
//                               Breadth and the six Best Match variants
//                               (BestMatch/<representation>/<metric>)
// RunAll also runs at 4 threads; the binary exits 1 when any method's
// hash differs from the 1-thread run (RunAll promises thread-count
// independence), 0 otherwise.
//
// Every FoodMart recipe is a goal with a single implementation, so an
// action's Eq. 8 count is 0 or 1 on every goal and each boolean Best Match
// variant prints the same hash as its count twin. The oracle wall and
// goalrec_fuzz cover libraries where the two differ.

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "data/foodmart.h"
#include "eval/suite.h"

namespace {

namespace gr = goalrec;

constexpr size_t kHoldOutEvery = 4;
constexpr size_t kK = 10;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

uint64_t HashList(const gr::core::RecommendationList& list) {
  uint64_t h = Mix(list.size(), 0);
  for (const gr::core::ScoredAction& s : list) {
    h = Mix(h, s.action);
    h = Mix(h, std::bit_cast<uint64_t>(s.score));
  }
  return h;
}

uint64_t HashLists(const std::vector<gr::core::RecommendationList>& lists) {
  uint64_t h = Mix(lists.size(), 0);
  for (const gr::core::RecommendationList& list : lists) {
    h = Mix(h, HashList(list));
  }
  return h;
}

uint64_t HashRecommend(const gr::core::Recommender& recommender,
                       const std::vector<gr::model::Activity>& carts) {
  std::vector<gr::core::RecommendationList> lists;
  lists.reserve(carts.size());
  for (const gr::model::Activity& cart : carts) {
    lists.push_back(recommender.Recommend(cart, kK));
  }
  return HashLists(lists);
}

void PrintHash(const char* kind, const std::string& name, uint64_t hash) {
  std::printf("%s %s %016" PRIx64 "\n", kind, name.c_str(), hash);
}

}  // namespace

int main() {
  gr::data::FoodmartOptions options;
  options.num_products = 600;
  options.num_categories = 64;
  options.num_ingredient_products = 260;
  options.num_recipes = 8000;
  options.num_carts = 600;
  options.seed = 42;
  const gr::data::Dataset dataset = gr::data::GenerateFoodmart(options);
  const gr::model::ImplementationLibrary& library = dataset.library;

  std::vector<gr::model::Activity> held_out;
  std::vector<gr::model::Activity> training;
  size_t non_empty = 0;
  for (const gr::data::UserRecord& user : dataset.users) {
    if (user.full_activity.empty()) continue;
    (non_empty++ % kHoldOutEvery == 0 ? held_out : training)
        .push_back(user.full_activity);
  }

  const gr::eval::Suite suite(&dataset, std::move(training));
  const std::vector<gr::eval::MethodResult> serial =
      suite.RunAll(held_out, kK, /*num_threads=*/1);
  const std::vector<gr::eval::MethodResult> parallel =
      suite.RunAll(held_out, kK, /*num_threads=*/4);
  int status = 0;
  for (size_t m = 0; m < serial.size(); ++m) {
    const uint64_t hash = HashLists(serial[m].lists);
    PrintHash("runall", serial[m].name, hash);
    if (HashLists(parallel[m].lists) != hash) {
      std::fprintf(stderr, "runall_hashes: %s differs at 4 threads\n",
                   serial[m].name.c_str());
      status = 1;
    }
  }

  const gr::core::FocusRecommender focus_cmp(
      &library, gr::core::FocusVariant::kCompleteness);
  const gr::core::FocusRecommender focus_cl(
      &library, gr::core::FocusVariant::kCloseness);
  const gr::core::BreadthRecommender breadth(&library);
  for (const gr::core::Recommender* r :
       {static_cast<const gr::core::Recommender*>(&focus_cmp),
        static_cast<const gr::core::Recommender*>(&focus_cl),
        static_cast<const gr::core::Recommender*>(&breadth)}) {
    PrintHash("recommend", r->name(), HashRecommend(*r, held_out));
  }
  struct Representation {
    const char* name;
    gr::core::GoalVectorRepresentation value;
  };
  struct Metric {
    const char* name;
    gr::util::DistanceMetric value;
  };
  for (const Representation& rep :
       {Representation{"count", gr::core::GoalVectorRepresentation::
                                    kImplementationCount},
        Representation{"boolean",
                       gr::core::GoalVectorRepresentation::kBoolean}}) {
    for (const Metric& metric :
         {Metric{"euclidean", gr::util::DistanceMetric::kEuclidean},
          Metric{"manhattan", gr::util::DistanceMetric::kManhattan},
          Metric{"cosine", gr::util::DistanceMetric::kCosine}}) {
      gr::core::BestMatchOptions bm;
      bm.representation = rep.value;
      bm.metric = metric.value;
      const gr::core::BestMatchRecommender best_match(&library, bm);
      PrintHash("recommend",
                std::string("BestMatch/") + rep.name + "/" + metric.name,
                HashRecommend(best_match, held_out));
    }
  }
  return status;
}
