// Hot-path query kernel benchmark: ops/sec and cycles-per-implementation for
// the four paper strategies on the pooled (zero-allocation) serving path at
// the BENCH_overload 50k-implementation scenario. This is the benchmark the
// scoring-kernel rewrite is judged by (single JSON document on stdout; see
// BENCH_query.json for recorded before/after runs):
//
//   * ops/sec + us/query per strategy over a pre-generated activity stream,
//     measured on RecommendPooled with one warmed QueryWorkspace — exactly
//     the route a ServingEngine rung takes;
//   * cycles/impl: TSC cycles divided by the implementations inspected
//     (|IS(H)| summed over the stream), the §5.4 unit cost that decides
//     whether "millions of users" is real;
//   * steady-state allocation counts via the instrumented global operator
//     new (same technique as micro_snapshot): after warm-up the pooled path
//     must perform ZERO heap allocations per query — the process exits
//     non-zero if it does not, so scripts/check.sh doubles as a regression
//     gate for both speed plumbing and allocation discipline;
//   * breadth_dense: the Breadth sparse/dense accumulator pair on a heavy
//     (96-action) activity stream, forced each way via
//     SetBreadthDenseCreditMultiplier plus the auto heuristic, with
//     dense_resets counts proving which path ran (oracle/sharded_test pins
//     bit-identity of the two paths; this records the speed difference).
//
// Flags: --smoke (smaller library, short sweep; CI), --seed, --queries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define GOALREC_BENCH_HAS_TSC 1
#endif

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "eval/scaling.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/set_ops.h"

// --- Global allocation counter ----------------------------------------------

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using Clock = std::chrono::steady_clock;

uint64_t ReadCycles() {
#ifdef GOALREC_BENCH_HAS_TSC
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

goalrec::model::Activity MakeActivity(uint32_t num_actions, uint64_t seed,
                                      size_t target_size = 8) {
  goalrec::util::Rng rng(seed);
  goalrec::model::Activity activity;
  while (activity.size() < target_size && activity.size() < num_actions) {
    uint32_t a = rng.UniformUint32(num_actions);
    if (!goalrec::util::Contains(activity, a)) {
      activity.push_back(a);
      std::sort(activity.begin(), activity.end());
    }
  }
  return activity;
}

struct StrategyPoint {
  std::string name;
  double ops_per_sec = 0.0;
  double us_per_query = 0.0;
  double cycles_per_impl = 0.0;
  int64_t steady_allocs = 0;
};

// One strategy over the whole activity stream: a warm-up pass that grows the
// workspace buffers to their high-water mark, then a timed + allocation-
// counted steady-state pass.
StrategyPoint Measure(const std::string& name,
                      const goalrec::core::Recommender& recommender,
                      const std::vector<goalrec::model::Activity>& activities,
                      double total_impls_inspected, size_t k, int repeats) {
  StrategyPoint point;
  point.name = name;
  goalrec::core::QueryWorkspace workspace;
  goalrec::core::RecommendationList out;
  for (const goalrec::model::Activity& h : activities) {
    recommender.RecommendPooled(h, k, nullptr, &workspace, out);
  }

  int64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  uint64_t cycles_start = ReadCycles();
  Clock::time_point start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const goalrec::model::Activity& h : activities) {
      recommender.RecommendPooled(h, k, nullptr, &workspace, out);
    }
  }
  double seconds =
      static_cast<double>((Clock::now() - start).count()) / 1e9;
  uint64_t cycles = ReadCycles() - cycles_start;
  point.steady_allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;

  double queries =
      static_cast<double>(activities.size()) * static_cast<double>(repeats);
  point.ops_per_sec = seconds > 0.0 ? queries / seconds : 0.0;
  point.us_per_query = seconds > 0.0 ? seconds * 1e6 / queries : 0.0;
  double impls = total_impls_inspected * static_cast<double>(repeats);
  point.cycles_per_impl =
      impls > 0.0 ? static_cast<double>(cycles) / impls : 0.0;
  return point;
}

// Breadth dense-vs-sparse accumulator comparison on a heavy activity stream
// (the scatter's credit mass must clear the dense threshold, which 8-action
// activities never do at this connectivity). The multiplier knob pins the
// accumulator choice; dense_resets proves which path actually ran.
struct DensePoint {
  std::string name;
  double ops_per_sec = 0.0;
  double us_per_query = 0.0;
  int64_t dense_resets = 0;
  int64_t steady_allocs = 0;
};

DensePoint MeasureBreadthVariant(
    const std::string& name, double multiplier,
    const goalrec::core::BreadthRecommender& breadth,
    const std::vector<goalrec::model::Activity>& activities, size_t k,
    int repeats) {
  DensePoint point;
  point.name = name;
  const double previous =
      goalrec::core::SetBreadthDenseCreditMultiplier(multiplier);
  goalrec::core::QueryWorkspace workspace;
  goalrec::core::RecommendationList out;
  for (const goalrec::model::Activity& h : activities) {
    breadth.RecommendPooled(h, k, nullptr, &workspace, out);
  }

  const int64_t resets_before = workspace.kernel_stats.dense_resets;
  int64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  Clock::time_point start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const goalrec::model::Activity& h : activities) {
      breadth.RecommendPooled(h, k, nullptr, &workspace, out);
    }
  }
  double seconds =
      static_cast<double>((Clock::now() - start).count()) / 1e9;
  point.steady_allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  point.dense_resets = workspace.kernel_stats.dense_resets - resets_before;
  goalrec::core::SetBreadthDenseCreditMultiplier(previous);

  double queries =
      static_cast<double>(activities.size()) * static_cast<double>(repeats);
  point.ops_per_sec = seconds > 0.0 ? queries / seconds : 0.0;
  point.us_per_query = seconds > 0.0 ? seconds * 1e6 / queries : 0.0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  const bool smoke = flags.Get<bool>("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 31));
  const size_t queries = flags.Get<size_t>("queries", smoke ? 64 : 256);
  const int repeats = flags.Get<int>("repeats", smoke ? 2 : 8);
  const size_t k = 10;

  // The BENCH_overload hot-path scenario: 50k implementations, connectivity
  // impls * 6 / actions = 60. --smoke shrinks the library, not the shape.
  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 10000 : 50000;
  workload.num_actions = smoke ? 1000 : 5000;
  workload.implementation_size = 6;

  goalrec::model::ImplementationLibrary library =
      goalrec::eval::BuildScalingLibrary(workload, 9);

  std::vector<goalrec::model::Activity> activities;
  activities.reserve(queries);
  double total_impls = 0.0;
  for (size_t q = 0; q < queries; ++q) {
    activities.push_back(MakeActivity(library.num_actions(), seed + q));
    total_impls += static_cast<double>(
        library.ImplementationSpace(activities.back()).size());
  }

  goalrec::core::FocusRecommender focus_cmp(
      &library, goalrec::core::FocusVariant::kCompleteness);
  goalrec::core::FocusRecommender focus_cl(
      &library, goalrec::core::FocusVariant::kCloseness);
  goalrec::core::BreadthRecommender breadth(&library);
  goalrec::core::BestMatchRecommender best_match(&library);

  // Heavy activity stream for the breadth_dense scenario: 96 actions per
  // query puts the credit mass well above the 4x num_actions dense
  // threshold at this connectivity (~34k credits vs a 20k threshold at the
  // full 5k-action scenario), so the auto heuristic picks the dense
  // accumulator and the forced sparse/dense pair measures the same queries
  // on both paths.
  const size_t heavy_queries = std::max<size_t>(16, queries / 4);
  std::vector<goalrec::model::Activity> heavy_activities;
  heavy_activities.reserve(heavy_queries);
  double heavy_total_impls = 0.0;
  for (size_t q = 0; q < heavy_queries; ++q) {
    heavy_activities.push_back(
        MakeActivity(library.num_actions(), seed + 7000 + q, 96));
    heavy_total_impls += static_cast<double>(
        library.ImplementationSpace(heavy_activities.back()).size());
  }

  std::vector<StrategyPoint> points;
  points.push_back(Measure("Focus_cmp", focus_cmp, activities, total_impls, k,
                           repeats));
  points.push_back(Measure("Focus_cl", focus_cl, activities, total_impls, k,
                           repeats));
  points.push_back(Measure("Breadth", breadth, activities, total_impls, k,
                           repeats));
  points.push_back(Measure("BestMatch", best_match, activities, total_impls,
                           k, repeats));

  std::vector<DensePoint> dense_points;
  dense_points.push_back(MeasureBreadthVariant(
      "sparse_forced", 1e18, breadth, heavy_activities, k, repeats));
  dense_points.push_back(MeasureBreadthVariant(
      "dense_forced", 0.0, breadth, heavy_activities, k, repeats));
  dense_points.push_back(MeasureBreadthVariant(
      "auto", 4.0, breadth, heavy_activities, k, repeats));

  std::printf("{\n  \"benchmark\": \"micro_query\", \"smoke\": %s,\n",
              smoke ? "true" : "false");
  std::printf(
      "  \"scenario\": {\"num_implementations\": %u, \"num_actions\": %u, "
      "\"activity_size\": 8, \"k\": %zu, \"queries\": %zu, \"repeats\": %d, "
      "\"avg_impl_space\": %.1f},\n",
      library.num_implementations(), library.num_actions(), k, queries,
      repeats, total_impls / static_cast<double>(queries));
#ifdef GOALREC_BENCH_HAS_TSC
  std::printf("  \"cycles_source\": \"rdtsc\",\n");
#else
  std::printf("  \"cycles_source\": \"steady_clock_ns\",\n");
#endif
  std::printf("  \"strategies\": [\n");
  bool steady_state_clean = true;
  for (size_t i = 0; i < points.size(); ++i) {
    const StrategyPoint& p = points[i];
    if (p.steady_allocs != 0) steady_state_clean = false;
    std::printf(
        "    {\"name\": \"%s\", \"ops_per_sec\": %.0f, \"us_per_query\": "
        "%.2f, \"cycles_per_impl\": %.2f, \"steady_allocs\": %lld}%s\n",
        p.name.c_str(), p.ops_per_sec, p.us_per_query, p.cycles_per_impl,
        static_cast<long long>(p.steady_allocs),
        i + 1 == points.size() ? "" : ",");
  }
  std::printf("  ],\n");
  std::printf(
      "  \"breadth_dense\": {\"activity_size\": 96, \"queries\": %zu, "
      "\"avg_impl_space\": %.1f, \"variants\": [\n",
      heavy_queries, heavy_total_impls / static_cast<double>(heavy_queries));
  for (size_t i = 0; i < dense_points.size(); ++i) {
    const DensePoint& p = dense_points[i];
    if (p.steady_allocs != 0) steady_state_clean = false;
    std::printf(
        "    {\"name\": \"%s\", \"ops_per_sec\": %.0f, \"us_per_query\": "
        "%.2f, \"dense_resets\": %lld, \"steady_allocs\": %lld}%s\n",
        p.name.c_str(), p.ops_per_sec, p.us_per_query,
        static_cast<long long>(p.dense_resets),
        static_cast<long long>(p.steady_allocs),
        i + 1 == dense_points.size() ? "" : ",");
  }
  std::printf("  ]},\n");
  std::printf("  \"pooled_steady_state_zero_alloc\": %s\n}\n",
              steady_state_clean ? "true" : "false");

  if (!steady_state_clean) {
    std::fprintf(stderr,
                 "FAIL: pooled query path allocated in steady state\n");
    return 1;
  }
  return 0;
}
