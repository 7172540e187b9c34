// Flight-recorder overhead gate plus a tail-exemplar capture demo (single
// JSON document on stdout; recorded run in BENCH_obs.json).
//
//   * Overhead: the BestMatch pooled hot path at the BENCH_overload
//     50k-implementation scenario, recorder enabled vs disabled (the runtime
//     kill switch — both sides run the same binary, so the comparison
//     isolates the Record() cost: clock read + three relaxed stores). Passes
//     are interleaved and the medians compared; the process exits non-zero
//     when the enabled path is more than 3% slower, so scripts/check.sh
//     (run_obs_smoke) gates recorder regressions in the plain and TSAN
//     trees. The instrumented global operator new additionally requires the
//     steady state to stay allocation-free on both sides.
//
//   * Exemplar demo: a ServingEngine with a latency-burst fault injector
//     (the correlated-slowdown scenario) serves a query stream; the bursts'
//     forced-slow queries must land in the ExemplarReservoir with a
//     non-empty recorder slice, and the rendered statusz page must list the
//     slowest one by id. This is the end-to-end "worst bucket links back to
//     a decodable query" claim of docs/observability.md, checked in CI.
//
// Flags: --smoke (smaller library, short sweep; CI), --seed, --queries,
// --passes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/best_match.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "eval/scaling.h"
#include "obs/exemplar.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/popularity_floor.h"
#include "serve/statusz.h"
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

/// One timed sweep over the activity stream; returns seconds and leaves the
/// steady-state allocation delta in *allocs.
double TimedSweep(const goalrec::core::Recommender& recommender,
                  const std::vector<goalrec::model::Activity>& activities,
                  size_t k, int repeats, goalrec::core::QueryWorkspace& ws,
                  goalrec::core::RecommendationList& out, int64_t* allocs) {
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  Clock::time_point start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const goalrec::model::Activity& h : activities) {
      recommender.RecommendPooled(h, k, nullptr, &ws, out);
    }
  }
  double seconds = static_cast<double>((Clock::now() - start).count()) / 1e9;
  *allocs += g_allocations.load(std::memory_order_relaxed) - before;
  return seconds;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  const bool smoke = flags.Get<bool>("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 31));
  const size_t queries = flags.Get<size_t>("queries", smoke ? 64 : 256);
  const int repeats = flags.Get<int>("repeats", smoke ? 2 : 6);
  const int passes = flags.Get<int>("passes", 5);
  // Instrumented builds (TSan in particular) tax the recorder's atomic ring
  // writes far more than the arithmetic-heavy scoring loop they ride on, so
  // the relative overhead no longer reflects production cost; check.sh
  // widens the gate for those trees. The 3% default is the production gate.
  const double overhead_limit_pct =
      flags.Get<double>("overhead_limit_pct", 3.0);
  const size_t k = 10;

  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 10000 : 50000;
  workload.num_actions = smoke ? 1000 : 5000;
  workload.implementation_size = 6;
  goalrec::model::ImplementationLibrary library =
      goalrec::eval::BuildScalingLibrary(workload, 9);

  std::vector<goalrec::model::Activity> activities;
  activities.reserve(queries);
  for (size_t q = 0; q < queries; ++q) {
    activities.push_back(MakeActivity(library.num_actions(), seed + q));
  }

  goalrec::core::BestMatchRecommender best_match(&library);
  goalrec::obs::FlightRecorder& recorder = goalrec::obs::FlightRecorder::Default();

  // --- Overhead: enabled vs disabled, interleaved, median of `passes` ------
  goalrec::core::QueryWorkspace workspace;
  goalrec::core::RecommendationList out;
  recorder.set_enabled(true);
  for (const goalrec::model::Activity& h : activities) {
    best_match.RecommendPooled(h, k, nullptr, &workspace, out);
  }
  std::vector<double> disabled_s, enabled_s;
  int64_t disabled_allocs = 0, enabled_allocs = 0;
  for (int pass = 0; pass < passes; ++pass) {
    recorder.set_enabled(false);
    disabled_s.push_back(TimedSweep(best_match, activities, k, repeats,
                                    workspace, out, &disabled_allocs));
    recorder.set_enabled(true);
    enabled_s.push_back(TimedSweep(best_match, activities, k, repeats,
                                   workspace, out, &enabled_allocs));
  }
  double med_disabled = Median(disabled_s);
  double med_enabled = Median(enabled_s);
  double total_queries =
      static_cast<double>(queries) * static_cast<double>(repeats);
  double overhead_pct =
      med_disabled > 0.0
          ? (med_enabled - med_disabled) / med_disabled * 100.0
          : 0.0;
  bool overhead_ok = overhead_pct <= overhead_limit_pct;
  bool allocs_ok = disabled_allocs == 0 && enabled_allocs == 0;

  // --- Exemplar demo: forced-slow queries must become decodable exemplars --
  goalrec::serve::LibraryPopularityRecommender popularity(&library);
  goalrec::serve::FaultInjectionOptions fault_options;
  fault_options.seed = seed;
  fault_options.latency_rate = 1.0 / 32.0;
  fault_options.latency_burst_count = 2;
  fault_options.latency_burst_ms = smoke ? 15 : 30;
  goalrec::serve::FaultInjector faults(fault_options);
  goalrec::obs::ExemplarReservoir exemplars;
  goalrec::obs::SloOptions slo_options;
  goalrec::obs::SloTracker slo(slo_options);
  goalrec::serve::EngineOptions engine_options;
  engine_options.faults = &faults;
  engine_options.exemplars = &exemplars;
  engine_options.slo = &slo;
  goalrec::serve::ServingEngine engine(
      {{"best_match", &best_match}, {"popularity", &popularity}},
      engine_options);
  for (const goalrec::model::Activity& h : activities) {
    (void)engine.Serve(h, k);
  }
  uint64_t injected_delays = faults.counters().delays;
  std::vector<goalrec::obs::TailExemplar> retained = exemplars.Snapshot();
  const goalrec::obs::TailExemplar* slowest = nullptr;
  for (const goalrec::obs::TailExemplar& exemplar : retained) {
    if (slowest == nullptr || exemplar.latency_us > slowest->latency_us) {
      slowest = &exemplar;
    }
  }
  goalrec::serve::StatuszSources sources;
  sources.engine = &engine;
  sources.slo = &slo;
  sources.exemplars = &exemplars;
  std::string statusz = goalrec::serve::RenderStatusz(sources);
  char id_hex[32] = "";
  bool statusz_lists_slowest = false;
  bool slice_decodes = false;
  if (slowest != nullptr) {
    std::snprintf(id_hex, sizeof(id_hex), "%016" PRIx64, slowest->id);
    statusz_lists_slowest = statusz.find(id_hex) != std::string::npos;
    // The decoded slice must show the query's own recorder events: its
    // start, the serving rung's exit, and at least one kernel stage stamp.
    std::string decoded = goalrec::serve::FormatServeEvents(
        slowest->events, {"best_match", "popularity"});
    slice_decodes = decoded.find("query_start") != std::string::npos &&
                    decoded.find("rung_exit") != std::string::npos &&
                    decoded.find("stage") != std::string::npos;
  }
  // The forced-slow query must beat the injected burst floor, so the
  // capture is demonstrably the burst, not ambient noise.
  double burst_floor_us =
      static_cast<double>(fault_options.latency_burst_ms) * 1e3;
  bool demo_ok = !goalrec::obs::kObsEnabled ||
                 (injected_delays > 0 && slowest != nullptr &&
                  slowest->latency_us >= burst_floor_us &&
                  !slowest->events.empty() && statusz_lists_slowest &&
                  slice_decodes);

  std::printf("{\n  \"benchmark\": \"micro_recorder\", \"smoke\": %s, "
              "\"obs_enabled\": %s,\n",
              smoke ? "true" : "false",
              goalrec::obs::kObsEnabled ? "true" : "false");
  std::printf(
      "  \"scenario\": {\"num_implementations\": %u, \"num_actions\": %u, "
      "\"activity_size\": 8, \"k\": %zu, \"queries\": %zu, \"repeats\": %d, "
      "\"passes\": %d},\n",
      library.num_implementations(), library.num_actions(), k, queries,
      repeats, passes);
  std::printf(
      "  \"overhead\": {\"disabled_us_per_query\": %.2f, "
      "\"enabled_us_per_query\": %.2f, \"overhead_pct\": %.2f, "
      "\"limit_pct\": %.1f, \"steady_allocs_disabled\": %lld, "
      "\"steady_allocs_enabled\": %lld},\n",
      med_disabled * 1e6 / total_queries, med_enabled * 1e6 / total_queries,
      overhead_pct, overhead_limit_pct, static_cast<long long>(disabled_allocs),
      static_cast<long long>(enabled_allocs));
  std::printf(
      "  \"exemplar_demo\": {\"queries\": %zu, \"injected_delays\": %llu, "
      "\"exemplars_retained\": %zu, \"slowest_ms\": %.2f, "
      "\"slowest_id\": \"%s\", \"slowest_recorder_events\": %zu, "
      "\"statusz_lists_slowest\": %s, \"slice_decodes\": %s},\n",
      queries, static_cast<unsigned long long>(injected_delays),
      retained.size(),
      slowest != nullptr ? slowest->latency_us / 1e3 : 0.0, id_hex,
      slowest != nullptr ? slowest->events.size() : 0,
      statusz_lists_slowest ? "true" : "false",
      slice_decodes ? "true" : "false");
  std::printf("  \"overhead_ok\": %s, \"zero_alloc\": %s, \"demo_ok\": %s\n}\n",
              overhead_ok ? "true" : "false", allocs_ok ? "true" : "false",
              demo_ok ? "true" : "false");

  if (!overhead_ok) {
    std::fprintf(stderr,
                 "FAIL: recorder overhead %.2f%% exceeds the %.1f%% gate\n",
                 overhead_pct, overhead_limit_pct);
    return 1;
  }
  if (!allocs_ok) {
    std::fprintf(stderr, "FAIL: hot path allocated in steady state\n");
    return 1;
  }
  if (!demo_ok) {
    std::fprintf(stderr,
                 "FAIL: forced-slow query was not captured as a decodable "
                 "tail exemplar\n");
    return 1;
  }
  return 0;
}
