// Snapshot/zero-allocation benchmark for the CSR library refactor. Measures
// the three claims the snapshot PR makes (single JSON document on stdout;
// see BENCH_snapshot.json for a recorded run):
//
//   1. Build cost: LibraryBuilder::Build + MakeSnapshot wall time for a
//      scaling-workload library — the price of a hot reload.
//   2. Query-path allocations: global operator new is instrumented with a
//      counter; each strategy is measured cold (Recommend, which builds a
//      context and result per call) and pooled (RecommendPooled over one
//      warmed QueryWorkspace and a reused output list). After warm-up the
//      pooled path must perform ZERO heap allocations per query — the
//      process exits non-zero if it does not, so scripts/check.sh --smoke
//      doubles as a regression gate.
//   3. Swap under load: closed-loop query threads against a snapshot-mode
//      ServingEngine while a reloader alternates two libraries through
//      SnapshotManager; query p50/p99 with and without concurrent reloads.
//      Lock-free acquire means reloads must not move the tail.
//
// Flags: --smoke (small library, short sweep; CI), --seed, --queries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "eval/scaling.h"
#include "model/snapshot.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/snapshot_manager.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/set_ops.h"

// --- Global allocation counter ----------------------------------------------
//
// Counts every operator new in the process. Section 2 takes deltas around
// single-threaded query loops, so background noise is zero by construction.

namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC pairs an inlined caller's new-expression with the free() below and
// reports -Wmismatched-new-delete; the pair is in fact matched, since the
// operator new above allocates with malloc.
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

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(samples.size()));
  index = std::min(index, samples.size() - 1);
  return samples[index];
}

struct AllocPoint {
  std::string name;
  double fresh_allocs_per_query = 0.0;
  double pooled_warmup_allocs = 0.0;  // total during the warm-up queries
  int64_t pooled_steady_allocs = 0;   // total across all measured queries
};

/// Allocation profile of one strategy over `activities`: cold path vs pooled
/// steady state. Warm-up is one full pass over the query stream (all scratch
/// buffers reach their high-water capacity); steady state replays the same
/// stream and must not allocate at all.
AllocPoint MeasureAllocations(const std::string& name,
                              const goalrec::core::Recommender& recommender,
                              const std::vector<goalrec::model::Activity>& activities,
                              size_t k) {
  AllocPoint point;
  point.name = name;

  int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const goalrec::model::Activity& h : activities) {
    goalrec::core::RecommendationList list = recommender.Recommend(h, k);
    (void)list;
  }
  int64_t after = g_allocations.load(std::memory_order_relaxed);
  point.fresh_allocs_per_query = static_cast<double>(after - before) /
                                 static_cast<double>(activities.size());

  goalrec::core::QueryWorkspace workspace;
  goalrec::core::RecommendationList out;
  before = g_allocations.load(std::memory_order_relaxed);
  for (const goalrec::model::Activity& h : activities) {
    recommender.RecommendPooled(h, k, nullptr, &workspace, out);
  }
  after = g_allocations.load(std::memory_order_relaxed);
  point.pooled_warmup_allocs = static_cast<double>(after - before);

  before = g_allocations.load(std::memory_order_relaxed);
  for (const goalrec::model::Activity& h : activities) {
    recommender.RecommendPooled(h, k, nullptr, &workspace, out);
  }
  after = g_allocations.load(std::memory_order_relaxed);
  point.pooled_steady_allocs = after - before;
  return point;
}

struct SwapPoint {
  int64_t queries = 0;
  int64_t reloads = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Closed-loop query threads against a snapshot-mode engine; when `reloads`
/// is positive a reloader thread alternates two equal-shape libraries for
/// the duration of the run.
SwapPoint RunSwapUnderLoad(goalrec::serve::SnapshotManager& manager,
                           std::shared_ptr<const goalrec::model::LibrarySnapshot> a,
                           std::shared_ptr<const goalrec::model::LibrarySnapshot> b,
                           int threads, int queries_per_thread, int reloads,
                           uint64_t seed) {
  goalrec::obs::MetricRegistry registry;
  goalrec::serve::EngineOptions options;
  options.metrics = &registry;
  goalrec::serve::ServingEngine engine(&manager, options);
  uint32_t num_actions = a->library.num_actions();

  std::vector<std::vector<double>> latencies(static_cast<size_t>(threads));
  std::atomic<bool> querying{true};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<double>& mine = latencies[static_cast<size_t>(t)];
      mine.reserve(static_cast<size_t>(queries_per_thread));
      for (int q = 0; q < queries_per_thread; ++q) {
        goalrec::model::Activity activity = MakeActivity(
            num_actions,
            seed + static_cast<uint64_t>(t) * 1000003 + static_cast<uint64_t>(q));
        Clock::time_point start = Clock::now();
        auto served = engine.Serve(activity, 10);
        if (served.ok()) {
          mine.push_back(
              static_cast<double>((Clock::now() - start).count()) / 1e6);
        }
      }
    });
  }
  std::thread reloader;
  int64_t reloads_done = 0;
  if (reloads > 0) {
    reloader = std::thread([&] {
      // Keep swapping for as long as the queriers run; stop at the cap.
      for (int i = 0; i < reloads && querying.load(std::memory_order_relaxed);
           ++i) {
        if (manager.Reload(i % 2 == 0 ? b : a).ok()) ++reloads_done;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  querying.store(false);
  if (reloader.joinable()) reloader.join();

  SwapPoint point;
  point.reloads = reloads_done;
  std::vector<double> all;
  for (const std::vector<double>& v : latencies) {
    point.queries += static_cast<int64_t>(v.size());
    all.insert(all.end(), v.begin(), v.end());
  }
  point.p50_ms = PercentileMs(all, 0.50);
  point.p99_ms = PercentileMs(all, 0.99);
  return point;
}

void SingleRungLadder(const goalrec::model::ImplementationLibrary& library,
                      goalrec::serve::ServingSnapshot& out) {
  auto best = std::make_unique<goalrec::core::BestMatchRecommender>(&library);
  out.rungs.push_back({"best_match", best.get()});
  out.owned.push_back(std::move(best));
}

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  const bool smoke = flags.Get<bool>("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 29));
  const size_t queries = flags.Get<size_t>("queries", smoke ? 200 : 2000);
  const size_t k = 10;

  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 20000 : 50000;
  workload.num_actions = 5000;
  workload.implementation_size = 6;

  // 1. Build + snapshot wrap time (the cost of a hot reload, minus IO).
  Clock::time_point build_start = Clock::now();
  goalrec::model::ImplementationLibrary lib =
      goalrec::eval::BuildScalingLibrary(workload, 9);
  std::shared_ptr<const goalrec::model::LibrarySnapshot> snapshot =
      goalrec::model::MakeSnapshot(std::move(lib), "bench");
  double build_ms =
      static_cast<double>((Clock::now() - build_start).count()) / 1e6;
  const goalrec::model::ImplementationLibrary& library = snapshot->library;

  std::printf("{\n  \"benchmark\": \"micro_snapshot\", \"smoke\": %s,\n",
              smoke ? "true" : "false");
  std::printf(
      "  \"build\": {\"num_implementations\": %u, \"num_actions\": %u, "
      "\"build_ms\": %.1f, \"snapshot_version\": %llu},\n",
      library.num_implementations(), library.num_actions(), build_ms,
      static_cast<unsigned long long>(snapshot->version));

  // 2. Per-query allocation counts, cold vs pooled steady state.
  std::vector<goalrec::model::Activity> activities;
  activities.reserve(queries);
  for (size_t q = 0; q < queries; ++q) {
    activities.push_back(MakeActivity(library.num_actions(), seed + q));
  }
  goalrec::core::FocusRecommender focus_cmp(
      &library, goalrec::core::FocusVariant::kCompleteness);
  goalrec::core::FocusRecommender focus_cl(
      &library, goalrec::core::FocusVariant::kCloseness);
  goalrec::core::BreadthRecommender breadth(&library);
  goalrec::core::BestMatchRecommender best_match(&library);
  std::vector<AllocPoint> points;
  points.push_back(MeasureAllocations("Focus_cmp", focus_cmp, activities, k));
  points.push_back(MeasureAllocations("Focus_cl", focus_cl, activities, k));
  points.push_back(MeasureAllocations("Breadth", breadth, activities, k));
  points.push_back(MeasureAllocations("BestMatch", best_match, activities, k));
  std::printf(
      "  \"allocations\": {\"queries\": %zu, \"warmup_queries\": %zu, "
      "\"strategies\": [\n",
      queries, queries);
  bool steady_state_clean = true;
  for (size_t i = 0; i < points.size(); ++i) {
    const AllocPoint& p = points[i];
    if (p.pooled_steady_allocs != 0) steady_state_clean = false;
    std::printf(
        "    {\"name\": \"%s\", \"fresh_allocs_per_query\": %.1f, "
        "\"pooled_warmup_allocs\": %.0f, \"pooled_steady_allocs\": %lld}%s\n",
        p.name.c_str(), p.fresh_allocs_per_query, p.pooled_warmup_allocs,
        static_cast<long long>(p.pooled_steady_allocs),
        i + 1 == points.size() ? "" : ",");
  }
  std::printf("  ]},\n");

  // 3. Swap under load: p50/p99 with a quiet manager vs. one being reloaded
  // as fast as the reloader can go.
  goalrec::eval::ScalingWorkload alt = workload;
  std::shared_ptr<const goalrec::model::LibrarySnapshot> other =
      goalrec::model::MakeSnapshot(
          goalrec::eval::BuildScalingLibrary(alt, 10), "bench-alt");
  const int threads = 4;
  const int queries_per_thread = smoke ? 100 : 1000;
  const int reloads = smoke ? 50 : 500;
  goalrec::serve::SnapshotManager manager(snapshot, SingleRungLadder);
  SwapPoint quiet = RunSwapUnderLoad(manager, snapshot, other, threads,
                                     queries_per_thread, /*reloads=*/0, seed);
  SwapPoint swapping = RunSwapUnderLoad(manager, snapshot, other, threads,
                                        queries_per_thread, reloads, seed);
  std::printf(
      "  \"swap_under_load\": {\"threads\": %d, \"queries_per_thread\": %d,\n"
      "    \"no_reload\": {\"queries\": %lld, \"p50_ms\": %.3f, "
      "\"p99_ms\": %.3f},\n"
      "    \"with_reloads\": {\"queries\": %lld, \"reloads\": %lld, "
      "\"p50_ms\": %.3f, \"p99_ms\": %.3f}},\n",
      threads, queries_per_thread, static_cast<long long>(quiet.queries),
      quiet.p50_ms, quiet.p99_ms, static_cast<long long>(swapping.queries),
      static_cast<long long>(swapping.reloads), swapping.p50_ms,
      swapping.p99_ms);
  std::printf("  \"pooled_steady_state_zero_alloc\": %s\n}\n",
              steady_state_clean ? "true" : "false");

  if (!steady_state_clean) {
    std::fprintf(stderr,
                 "FAIL: pooled query path allocated in steady state\n");
    return 1;
  }
  return 0;
}
