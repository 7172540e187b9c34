// Open-loop overload and shard sweep of the serving ladder: a
// Poisson-arrival load generator driving the ladder
// serve::MakeShardedLadderFactory builds (the one `goalrec serve` runs) at
// and beyond saturation, plus a closed-loop throughput column, for every
// shard count x library size.
//
// Open loop, not closed loop: arrival times are drawn up front from an
// exponential inter-arrival distribution at a fixed offered rate and do NOT
// wait for previous queries to finish — exactly the regime where an
// overloaded server falls behind and queueing delay compounds (the
// coordinated-omission trap a closed-loop generator hides). Latency is
// measured from the *scheduled* arrival time, so time spent waiting for a
// free worker counts against the query.
//
// Method (single JSON document on stdout; BENCH_overload.json records a
// full run):
//   1. Libraries: synthetic, implementation size 6, actions =
//      implementations / 50: 100k, 400k and 2M implementations (smoke: one
//      50k library with 5k actions). Each shard count S gets its ladder
//      (best_match → breadth → popularity) from the factory: at S = 1 the
//      plain kernels, above it the fan-out on a shared thread pool.
//   2. Calibration, once per library and after a warm-up of the same
//      length: one closed-loop client per core on the 1-shard ladder,
//      wide-open deadline, measures capacity C qps.
//      Every shard count and seed of that library is offered C (1x) and 2C
//      (2x) and served under one deadline, 12x the calibrated service time
//      (clients / C; 40 ms floor, 1 s cap) unless --deadline_ms pins it.
//   3. Per seed (ten; smoke: one) and shard count, interleaved so host
//      drift reaches every shard count alike: a one-client closed loop (the
//      solo latency, recorded only), the closed-loop throughput with one
//      client per core, then open-loop runs at 1x (protected), 2x
//      (protected) and 2x (unprotected). Protected mode puts an adaptive
//      AdmissionController with SHORT queues in front (under open-loop
//      overload a long queue converts every answer into a deadline miss —
//      shedding fast is what preserves goodput) and a CircuitBreaker on
//      every non-final rung.
//   4. Queries come from per-user simulated activity streams: each user
//      keeps a sliding window of recent actions, and a served
//      recommendation feeds its top action back into the window — arrivals
//      are correlated per user, like a real session, not i.i.d. draws.
//      Every shard count of one seed starts from the same streams and the
//      same arrival schedules.
//   5. Goodput = full-quality (non-degraded) answers completing within the
//      deadline OF THEIR SCHEDULED ARRIVAL, per second of the arrival
//      horizon. Each cell (library x shard count) reports every seed's
//      values and, per column, the nearest-rank quartiles over seeds.
//
// Flags: --duration_ms (per open-loop point; the closed loops run half of
// it, the solo probe a quarter), --deadline_ms (0 = scale to the
// calibration), --workers (open-loop senders), --shards=CSV (override the
// {1,2,4} sweep; smoke {1,2}), --seed, --smoke (short run for CI:
// scripts/check.sh run_shard_smoke invokes it).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/scaling.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/engine.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;
using Rungs = std::vector<goalrec::serve::ServingEngine::Rung>;

constexpr size_t kK = 10;
constexpr size_t kWindowCap = 10;
constexpr uint32_t kMaxShards = 64;

/// Per-user sliding activity windows. Queries snapshot a user's window;
/// a served answer feeds its top recommendation back in, evicting the
/// oldest action — each user's query stream evolves like a session instead
/// of being an i.i.d. redraw.
class UserStreams {
 public:
  UserStreams(size_t users, uint32_t num_actions, uint64_t seed)
      : users_(users), num_actions_(num_actions) {
    goalrec::util::Rng rng(seed);
    for (size_t u = 0; u < users; ++u) {
      users_[u].window.resize(6);
      for (goalrec::model::ActionId& a : users_[u].window) {
        a = rng.UniformUint32(num_actions);
      }
    }
  }

  goalrec::model::Activity Snapshot(size_t u) {
    User& user = users_[u % users_.size()];
    goalrec::model::Activity activity;
    {
      std::lock_guard<std::mutex> lock(user.mu);
      activity.assign(user.window.begin(), user.window.end());
    }
    std::sort(activity.begin(), activity.end());
    activity.erase(std::unique(activity.begin(), activity.end()),
                   activity.end());
    return activity;
  }

  void Adopt(size_t u, goalrec::model::ActionId action) {
    if (action >= num_actions_) return;
    User& user = users_[u % users_.size()];
    std::lock_guard<std::mutex> lock(user.mu);
    user.window.push_back(action);
    while (user.window.size() > kWindowCap) user.window.pop_front();
  }

 private:
  struct User {
    std::mutex mu;
    std::deque<goalrec::model::ActionId> window;
  };
  std::deque<User> users_;  // deque: User is immovable (mutex)
  uint32_t num_actions_;
};

/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(samples.size()));
  index = std::min(index, samples.size() - 1);
  return samples[index];
}

struct LoadPoint {
  std::string name;
  bool protected_mode = false;
  double offered_qps = 0.0;  // Poisson arrival rate
  int64_t duration_ms = 0;   // arrival horizon
  int64_t offered = 0;       // arrivals scheduled
  int64_t completed = 0;     // OK answers
  int64_t good = 0;          // full-quality answers meeting the deadline
  int64_t shed = 0;          // kResourceExhausted rejections
  int64_t unavailable = 0;   // every rung failed
  int64_t degraded = 0;      // served below the top rung
  double goodput_qps = 0.0;
  double throughput_qps = 0.0;
  double p50_ms = 0.0;  // from SCHEDULED arrival (includes queueing)
  double p99_ms = 0.0;
  int final_limit = 0;
  int64_t breaker_opens = 0;
};

struct EngineSetup {
  goalrec::obs::MetricRegistry registry;
  std::optional<goalrec::serve::AdmissionController> admission;
  std::optional<goalrec::serve::ServingEngine> engine;
};

/// Builds a fresh engine over `rungs`. Protected mode: adaptive limiter
/// with deliberately SHORT queues (open-loop overload must shed, not
/// queue) and per-rung breakers.
void BuildEngine(EngineSetup& setup, const Rungs& rungs, bool protected_mode,
                 int64_t deadline_ms, double baseline_ms, uint64_t seed) {
  goalrec::serve::EngineOptions options;
  options.deadline_ms = deadline_ms;
  options.metrics = &setup.registry;
  if (protected_mode) {
    goalrec::serve::AdmissionOptions admission_options;
    admission_options.initial_limit = 4;
    admission_options.min_limit = 1;
    admission_options.max_limit = 16;
    admission_options.adaptive = true;
    // An open-loop generator keeps arriving regardless of progress: a deep
    // queue just ages every admitted query past its deadline. Keep the
    // queues shallow so overload turns into fast kResourceExhausted sheds.
    admission_options.max_queue_interactive = 4;
    admission_options.max_queue_batch = 2;
    admission_options.metrics = &setup.registry;
    if (baseline_ms > 0.0) {
      admission_options.initial_baseline = std::chrono::nanoseconds(
          static_cast<int64_t>(baseline_ms * 1e6));
    }
    setup.admission.emplace(admission_options);
    options.admission = &*setup.admission;
    goalrec::serve::CircuitBreakerOptions breaker_options;
    breaker_options.failure_threshold = 10;
    breaker_options.open_cooldown = std::chrono::milliseconds(250);
    breaker_options.seed = seed;
    options.breaker = breaker_options;
  }
  setup.engine.emplace(rungs, options);
}

/// Closed loop: `clients` threads serve back to back for `duration_ms`,
/// unprotected, and the rate of completed queries (per second) comes back.
/// The deadline is wide open so a slow workload is measured on the top rung
/// instead of being truncated into a fallback. With one client, 1000 / rate
/// is the no-load ladder latency in ms.
double RunClosedLoop(const Rungs& rungs, UserStreams& streams, int clients,
                     int64_t duration_ms, uint64_t seed) {
  constexpr int64_t kWideDeadlineMs = 2000;
  EngineSetup setup;
  BuildEngine(setup, rungs, /*protected_mode=*/false, kWideDeadlineMs, 0.0,
              seed);
  Clock::time_point start = Clock::now();
  Clock::time_point stop_at = start + std::chrono::milliseconds(duration_ms);
  std::atomic<int64_t> completed{0};
  std::atomic<uint64_t> next_user{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < stop_at) {
        uint64_t user = next_user.fetch_add(1, std::memory_order_relaxed);
        goalrec::util::StatusOr<goalrec::serve::ServeResult> served =
            setup.engine->Serve(streams.Snapshot(user), kK);
        if (!served.ok()) continue;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (!served->list.empty()) streams.Adopt(user, served->list[0].action);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  double elapsed_s = static_cast<double>((Clock::now() - start).count()) / 1e9;
  return static_cast<double>(completed.load()) / elapsed_s;
}

/// One open-loop run: Poisson arrivals at `offered_qps` over `duration_ms`,
/// claimed by a fixed worker pool. A worker sleeps until the arrival's
/// scheduled time, snapshots that user's activity window, serves, and
/// measures latency from the SCHEDULED arrival — a late start (all workers
/// busy = server behind) is charged to the query, as a real client would
/// experience it.
LoadPoint RunOpenLoop(const std::string& name, const Rungs& rungs,
                      UserStreams& streams, bool protected_mode,
                      double offered_qps, int64_t duration_ms,
                      int64_t deadline_ms, int workers, double baseline_ms,
                      uint64_t seed) {
  EngineSetup setup;
  BuildEngine(setup, rungs, protected_mode, deadline_ms, baseline_ms, seed);
  // Draw the arrival schedule up front: exponential inter-arrival gaps at
  // rate `offered_qps`, one user per arrival.
  goalrec::util::Rng rng(seed);
  std::vector<double> arrival_s;
  std::vector<uint32_t> arrival_user;
  const double horizon_s = static_cast<double>(duration_ms) / 1e3;
  double t = 0.0;
  while (true) {
    double u = rng.UniformDouble();
    t += -std::log1p(-u) / offered_qps;  // -ln(1-u)/lambda, u in [0,1)
    if (t >= horizon_s) break;
    arrival_s.push_back(t);
    arrival_user.push_back(rng.NextUint32());
    if (arrival_s.size() >= 400000) break;  // runaway-rate backstop
  }

  struct WorkerStats {
    int64_t completed = 0, good = 0, shed = 0, unavailable = 0, degraded = 0;
    std::vector<double> latencies_ms;
  };
  std::vector<WorkerStats> stats(static_cast<size_t>(workers));
  std::atomic<size_t> next{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      WorkerStats& mine = stats[static_cast<size_t>(w)];
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= arrival_s.size()) break;
        Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrival_s[i]));
        std::this_thread::sleep_until(scheduled);
        size_t user = arrival_user[i];
        goalrec::model::Activity activity = streams.Snapshot(user);
        goalrec::util::StatusOr<goalrec::serve::ServeResult> served =
            setup.engine->Serve(activity, kK);
        double elapsed_ms =
            static_cast<double>((Clock::now() - scheduled).count()) / 1e6;
        if (served.ok()) {
          ++mine.completed;
          mine.latencies_ms.push_back(elapsed_ms);
          if (elapsed_ms <= static_cast<double>(deadline_ms) &&
              !served->degraded) {
            ++mine.good;
          }
          if (served->degraded) ++mine.degraded;
          if (!served->list.empty()) {
            streams.Adopt(user, served->list[0].action);
          }
        } else if (served.status().code() ==
                   goalrec::util::StatusCode::kResourceExhausted) {
          ++mine.shed;  // open loop: no backoff, the next arrival is fixed
        } else {
          ++mine.unavailable;
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();

  LoadPoint point;
  point.name = name;
  point.protected_mode = protected_mode;
  point.offered_qps = offered_qps;
  point.duration_ms = duration_ms;
  point.offered = static_cast<int64_t>(arrival_s.size());
  std::vector<double> latencies;
  for (const WorkerStats& s : stats) {
    point.completed += s.completed;
    point.good += s.good;
    point.shed += s.shed;
    point.unavailable += s.unavailable;
    point.degraded += s.degraded;
    latencies.insert(latencies.end(), s.latencies_ms.begin(),
                     s.latencies_ms.end());
  }
  // Rates are against the arrival horizon (or the actual span if the
  // server fell behind it): falling behind must not inflate goodput.
  double span_s = std::max(
      horizon_s, static_cast<double>((Clock::now() - start).count()) / 1e9);
  point.goodput_qps = static_cast<double>(point.good) / span_s;
  point.throughput_qps = static_cast<double>(point.completed) / span_s;
  point.p50_ms = Percentile(latencies, 0.50);
  point.p99_ms = Percentile(latencies, 0.99);
  if (protected_mode) {
    point.final_limit = setup.admission->concurrency_limit();
    for (size_t r = 0; r < setup.engine->num_rungs(); ++r) {
      if (setup.engine->breaker(r) != nullptr) {
        point.breaker_opens += setup.engine->breaker(r)->transitions_to(
            goalrec::serve::CircuitBreaker::State::kOpen);
      }
    }
  }
  return point;
}

void PrintPoint(const LoadPoint& p, bool last) {
  std::printf(
      "          {\"name\": \"%s\", \"protected\": %s, "
      "\"offered_qps\": %.1f, \"duration_ms\": %lld,\n"
      "           \"offered\": %lld, \"completed\": %lld, \"good\": %lld, "
      "\"shed\": %lld, \"unavailable\": %lld, \"degraded\": %lld,\n"
      "           \"goodput_qps\": %.1f, \"throughput_qps\": %.1f, "
      "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"final_limit\": %d, "
      "\"breaker_opens\": %lld}%s\n",
      p.name.c_str(), p.protected_mode ? "true" : "false", p.offered_qps,
      static_cast<long long>(p.duration_ms), static_cast<long long>(p.offered),
      static_cast<long long>(p.completed), static_cast<long long>(p.good),
      static_cast<long long>(p.shed), static_cast<long long>(p.unavailable),
      static_cast<long long>(p.degraded), p.goodput_qps, p.throughput_qps,
      p.p50_ms, p.p99_ms, p.final_limit,
      static_cast<long long>(p.breaker_opens), last ? "" : ",");
}

/// Parses --shards as a comma-separated list of shard counts in
/// [1, kMaxShards]; anything else exits 2 naming the flag.
std::vector<uint32_t> ParseShards(const std::string& csv,
                                  std::vector<uint32_t> fallback) {
  if (csv.empty()) return fallback;
  std::vector<uint32_t> shards;
  for (const std::string& field : goalrec::util::Split(csv, ',')) {
    uint32_t value = 0;
    const char* end = field.data() + field.size();
    auto [ptr, ec] = std::from_chars(field.data(), end, value);
    if (ec != std::errc() || ptr != end || value == 0 || value > kMaxShards) {
      std::fprintf(stderr,
                   "micro_overload: --shards expects a comma-separated list "
                   "of shard counts in [1, %u], got '%s'\n",
                   kMaxShards, csv.c_str());
      std::exit(2);
    }
    shards.push_back(value);
  }
  return shards;
}

/// One seed of one shard count on one library.
struct Run {
  uint64_t seed = 0;
  uint32_t shards = 0;
  double solo_ms = 0.0;
  double closed_qps = 0.0;
  LoadPoint p1x, p2x, u2x;
};

/// {"q1": .., "median": .., "q3": ..} of `field` over the runs of `shards`.
template <typename Field>
std::string Quartiles(const std::vector<Run>& runs, uint32_t shards,
                      Field field) {
  std::vector<double> values;
  for (const Run& run : runs) {
    if (run.shards == shards) values.push_back(field(run));
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"q1\": %.2f, \"median\": %.2f, \"q3\": %.2f}",
                Percentile(values, 0.25), Percentile(values, 0.5),
                Percentile(values, 0.75));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  const bool smoke = flags.Get<bool>("smoke", false);
  const int64_t duration_ms =
      flags.Get<int64_t>("duration_ms", smoke ? 250 : 2000);
  // 0 = auto: 12x the calibrated service time of each library.
  const int64_t deadline_flag_ms = flags.Get<int64_t>("deadline_ms", 0);
  // Enough client workers that arrivals reach the server even when it is
  // behind: an open-loop generator starved of senders degenerates into a
  // closed loop (excess load queues client-side and the admission
  // controller never sees it). Sheds are near-instant, so workers churn.
  const int workers = flags.Get<int>("workers", smoke ? 16 : 32);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 17));
  const std::vector<uint32_t> shard_sweep = ParseShards(
      flags.GetString("shards"),
      smoke ? std::vector<uint32_t>{1, 2} : std::vector<uint32_t>{1, 2, 4});
  const int seeds = smoke ? 1 : 10;
  const int clients =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const size_t num_users = smoke ? 512 : 4096;
  // (implementations, actions); the sweep keeps actions = implementations
  // / 50 (implementation size 6, the ScalingWorkload default).
  using Size = std::pair<uint32_t, uint32_t>;
  const std::vector<Size> libraries =
      smoke ? std::vector<Size>{{50000, 5000}}
            : std::vector<Size>{{100000, 2000}, {400000, 8000},
                                {2000000, 40000}};

  uint32_t max_shards = 1;
  for (uint32_t s : shard_sweep) max_shards = std::max(max_shards, s);
  goalrec::util::ThreadPool fanout_pool(std::max<uint32_t>(1, max_shards - 1));
  goalrec::obs::MetricRegistry ladder_metrics;
  // The ladder a `num_shards`-shard server runs over `lib`.
  auto build_ladder = [&](const goalrec::model::ImplementationLibrary& lib,
                          uint32_t num_shards,
                          goalrec::serve::ServingSnapshot& out) {
    goalrec::serve::ShardedLadderOptions options;
    options.num_shards = num_shards;
    options.pool = &fanout_pool;
    options.metrics = &ladder_metrics;
    goalrec::serve::MakeShardedLadderFactory(options)(lib, out);
  };

  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_overload\",\n");
  std::printf("  \"mode\": \"open_loop_poisson\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"workers\": %d,\n", workers);
  std::printf("  \"closed_loop_clients\": %d,\n", clients);
  std::printf("  \"seeds\": %d,\n", seeds);
  std::printf("  \"duration_ms\": %lld,\n", static_cast<long long>(duration_ms));
  std::printf("  \"libraries\": [\n");
  for (size_t li = 0; li < libraries.size(); ++li) {
    goalrec::eval::ScalingWorkload workload;
    workload.num_implementations = libraries[li].first;
    workload.num_actions = libraries[li].second;
    goalrec::model::ImplementationLibrary lib =
        goalrec::eval::BuildScalingLibrary(workload, 9);
    std::vector<goalrec::serve::ServingSnapshot> ladders(shard_sweep.size());
    for (size_t i = 0; i < shard_sweep.size(); ++i) {
      build_ladder(lib, shard_sweep[i], ladders[i]);
    }

    // One calibration per library, shared by every shard count and seed.
    goalrec::serve::ServingSnapshot reference;
    build_ladder(lib, 1, reference);
    UserStreams calibration_streams(num_users, lib.num_actions(), seed);
    // Twice, keeping the second: a 4-vCPU VM whose cores sat idle through
    // the single-threaded library build serves about 3x below its steady
    // rate for the first second of multi-threaded load.
    RunClosedLoop(reference.rungs, calibration_streams, clients,
                  duration_ms / 2, seed);
    const double capacity_qps =
        RunClosedLoop(reference.rungs, calibration_streams, clients,
                      duration_ms / 2, seed);
    const double service_ms = 1e3 * clients / std::max(capacity_qps, 1.0);
    const int64_t deadline_ms =
        deadline_flag_ms > 0
            ? deadline_flag_ms
            : std::clamp<int64_t>(
                  static_cast<int64_t>(std::ceil(12.0 * service_ms)), 40,
                  1000);

    std::printf(
        "    {\"implementations\": %u, \"actions\": %u, "
        "\"implementation_size\": %u, \"users\": %zu,\n"
        "     \"calibration_qps\": %.1f, \"deadline_ms\": %lld,\n"
        "     \"runs\": [\n",
        workload.num_implementations, workload.num_actions,
        workload.implementation_size, num_users, capacity_qps,
        static_cast<long long>(deadline_ms));
    std::vector<Run> runs;
    for (int si = 0; si < seeds; ++si) {
      const uint64_t run_seed = seed + 1000 * static_cast<uint64_t>(si);
      for (size_t i = 0; i < shard_sweep.size(); ++i) {
        const Rungs& rungs = ladders[i].rungs;
        Run run;
        run.seed = run_seed;
        run.shards = shard_sweep[i];
        UserStreams streams(num_users, lib.num_actions(), run_seed);
        run.solo_ms =
            1e3 / std::max(RunClosedLoop(rungs, streams, 1, duration_ms / 4,
                                         run_seed),
                           1e-3);
        run.closed_qps =
            RunClosedLoop(rungs, streams, clients, duration_ms / 2, run_seed);
        run.p1x = RunOpenLoop("protected_1x", rungs, streams, true,
                              capacity_qps, duration_ms, deadline_ms, workers,
                              service_ms, run_seed + 100);
        run.p2x = RunOpenLoop("protected_2x", rungs, streams, true,
                              2.0 * capacity_qps, duration_ms, deadline_ms,
                              workers, service_ms, run_seed + 200);
        run.u2x = RunOpenLoop("unprotected_2x", rungs, streams, false,
                              2.0 * capacity_qps, duration_ms, deadline_ms,
                              workers, service_ms, run_seed + 300);
        const bool last =
            si + 1 == seeds && i + 1 == shard_sweep.size();
        std::printf("      {\"seed\": %llu, \"shards\": %u, "
                    "\"solo_latency_ms\": %.3f, \"closed_loop_qps\": %.1f, "
                    "\"points\": [\n",
                    static_cast<unsigned long long>(run.seed), run.shards,
                    run.solo_ms, run.closed_qps);
        PrintPoint(run.p1x, false);
        PrintPoint(run.p2x, false);
        PrintPoint(run.u2x, true);
        std::printf("      ]}%s\n", last ? "" : ",");
        std::fflush(stdout);
        runs.push_back(run);
      }
    }
    std::printf("     ],\n     \"cells\": [\n");
    for (size_t i = 0; i < shard_sweep.size(); ++i) {
      const uint32_t shards = shard_sweep[i];
      std::printf(
          "       {\"shards\": %u,\n"
          "        \"closed_loop_qps\": %s,\n"
          "        \"protected_1x_p50_ms\": %s,\n"
          "        \"protected_1x_p99_ms\": %s,\n"
          "        \"protected_1x_goodput_qps\": %s,\n"
          "        \"protected_2x_goodput_qps\": %s,\n"
          "        \"unprotected_2x_goodput_qps\": %s,\n"
          "        \"solo_latency_ms\": %s}%s\n",
          shards,
          Quartiles(runs, shards, [](const Run& r) { return r.closed_qps; })
              .c_str(),
          Quartiles(runs, shards, [](const Run& r) { return r.p1x.p50_ms; })
              .c_str(),
          Quartiles(runs, shards, [](const Run& r) { return r.p1x.p99_ms; })
              .c_str(),
          Quartiles(runs, shards,
                    [](const Run& r) { return r.p1x.goodput_qps; })
              .c_str(),
          Quartiles(runs, shards,
                    [](const Run& r) { return r.p2x.goodput_qps; })
              .c_str(),
          Quartiles(runs, shards,
                    [](const Run& r) { return r.u2x.goodput_qps; })
              .c_str(),
          Quartiles(runs, shards, [](const Run& r) { return r.solo_ms; })
              .c_str(),
          i + 1 == shard_sweep.size() ? "" : ",");
    }
    std::printf("     ]}%s\n", li + 1 == libraries.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return 0;
}
