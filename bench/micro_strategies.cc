// Micro-benchmarks for the four goal-based strategies and the two
// §5.4/DESIGN.md ablations: Algorithm 2's single-pass Breadth accumulation
// vs the naive per-candidate Eq. 6 evaluation, and Best Match under the
// three distance metrics. The single-strategy rows time the query kernel
// (RecommendPooled) on a warm workspace, as serving and evaluation run it.

#include <benchmark/benchmark.h>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "eval/scaling.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace {

using goalrec::eval::BuildScalingLibrary;
using goalrec::eval::ScalingWorkload;

ScalingWorkload Workload(uint32_t actions) {
  ScalingWorkload w;
  w.num_implementations = 50000;
  w.num_actions = actions;
  w.implementation_size = 6;
  return w;
}

goalrec::model::Activity MakeActivity(uint32_t num_actions, uint64_t seed) {
  goalrec::util::Rng rng(seed);
  goalrec::model::Activity activity;
  while (activity.size() < 8) {
    uint32_t a = rng.UniformUint32(num_actions);
    if (!goalrec::util::Contains(activity, a)) {
      activity.push_back(a);
      std::sort(activity.begin(), activity.end());
    }
  }
  return activity;
}

// Connectivity regimes: Arg = number of actions; 25000 actions -> ~12
// impls/action, 1000 actions -> ~300 impls/action.

// One strategy's kernel on a warm workspace.
void RunPooled(benchmark::State& state,
               const goalrec::core::Recommender& recommender,
               const goalrec::model::Activity& h) {
  goalrec::core::QueryWorkspace ws;
  goalrec::core::RecommendationList out;
  for (auto _ : state) {
    recommender.RecommendPooled(h, 10, nullptr, &ws, out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_FocusCompleteness(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::FocusRecommender focus(
      &lib, goalrec::core::FocusVariant::kCompleteness);
  auto h = MakeActivity(lib.num_actions(), 21);
  RunPooled(state, focus, h);
}
BENCHMARK(BM_FocusCompleteness)->Arg(25000)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_FocusCloseness(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::FocusRecommender focus(
      &lib, goalrec::core::FocusVariant::kCloseness);
  auto h = MakeActivity(lib.num_actions(), 21);
  RunPooled(state, focus, h);
}
BENCHMARK(BM_FocusCloseness)->Arg(25000)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_Breadth(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::BreadthRecommender breadth(&lib);
  auto h = MakeActivity(lib.num_actions(), 21);
  RunPooled(state, breadth, h);
}
BENCHMARK(BM_Breadth)->Arg(25000)->Arg(1000)->Unit(benchmark::kMicrosecond);

// Ablation: naive Breadth scoring — evaluate Eq. 6 per candidate via
// Score() instead of Algorithm 2's one pass over IS(H).
void BM_BreadthNaive(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::BreadthRecommender breadth(&lib);
  auto h = MakeActivity(lib.num_actions(), 21);
  for (auto _ : state) {
    double total = 0.0;
    for (goalrec::model::ActionId a : lib.CandidateActions(h)) {
      total += breadth.Score(a, h);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_BreadthNaive)->Arg(25000)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_BestMatchEuclidean(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::BestMatchRecommender best_match(&lib);
  auto h = MakeActivity(lib.num_actions(), 21);
  RunPooled(state, best_match, h);
}
BENCHMARK(BM_BestMatchEuclidean)->Arg(25000)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_BestMatchCosine(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::BestMatchOptions options;
  options.metric = goalrec::util::DistanceMetric::kCosine;
  goalrec::core::BestMatchRecommender best_match(&lib, options);
  auto h = MakeActivity(lib.num_actions(), 21);
  RunPooled(state, best_match, h);
}
BENCHMARK(BM_BestMatchCosine)->Arg(25000)->Unit(benchmark::kMicrosecond);

void BM_BestMatchBoolean(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::BestMatchOptions options;
  options.representation =
      goalrec::core::GoalVectorRepresentation::kBoolean;
  goalrec::core::BestMatchRecommender best_match(&lib, options);
  auto h = MakeActivity(lib.num_actions(), 21);
  RunPooled(state, best_match, h);
}
BENCHMARK(BM_BestMatchBoolean)->Arg(25000)->Unit(benchmark::kMicrosecond);

// Ablation: answering with all four strategies per query — four allocating
// Recommend calls vs four pooled kernels on one warm workspace.
void BM_FourStrategiesIndependent(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::FocusRecommender focus_cmp(
      &lib, goalrec::core::FocusVariant::kCompleteness);
  goalrec::core::FocusRecommender focus_cl(
      &lib, goalrec::core::FocusVariant::kCloseness);
  goalrec::core::BreadthRecommender breadth(&lib);
  goalrec::core::BestMatchRecommender best_match(&lib);
  auto h = MakeActivity(lib.num_actions(), 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(focus_cmp.Recommend(h, 10));
    benchmark::DoNotOptimize(focus_cl.Recommend(h, 10));
    benchmark::DoNotOptimize(breadth.Recommend(h, 10));
    benchmark::DoNotOptimize(best_match.Recommend(h, 10));
  }
}
BENCHMARK(BM_FourStrategiesIndependent)->Arg(25000)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// What eval::Suite::RunAll runs per cart: one warm workspace, the four
// pooled kernels one after another.
void BM_FourStrategiesPooled(benchmark::State& state) {
  auto lib = BuildScalingLibrary(
      Workload(static_cast<uint32_t>(state.range(0))), 9);
  goalrec::core::FocusRecommender focus_cmp(
      &lib, goalrec::core::FocusVariant::kCompleteness);
  goalrec::core::FocusRecommender focus_cl(
      &lib, goalrec::core::FocusVariant::kCloseness);
  goalrec::core::BreadthRecommender breadth(&lib);
  goalrec::core::BestMatchRecommender best_match(&lib);
  const goalrec::core::Recommender* roster[] = {&focus_cmp, &focus_cl,
                                                &breadth, &best_match};
  auto h = MakeActivity(lib.num_actions(), 21);
  goalrec::core::QueryWorkspace ws;
  goalrec::core::RecommendationList out;
  for (auto _ : state) {
    for (const goalrec::core::Recommender* rec : roster) {
      rec->RecommendPooled(h, 10, nullptr, &ws, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
}
BENCHMARK(BM_FourStrategiesPooled)->Arg(25000)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
