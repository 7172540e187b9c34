// Open-loop overload benchmark for sharded serving: a Poisson-arrival load
// generator driving the sharded ladder at and beyond saturation, measuring
// goodput and latency as a function of shard count.
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
//   1. Library: a multi-million-implementation synthetic library (smoke:
//      50k). Each shard count S in the sweep gets its own
//      model::ShardedSnapshot + sharded ladder (best_match → breadth →
//      popularity), fan-out on a shared thread pool.
//   2. Capacity probe per S: one closed-loop client measures the no-load
//      ladder latency L; the saturation rate is ~1000/L qps. The probe runs
//      with a wide-open deadline so it measures the TOP rung, not a
//      deadline-truncated fallback. The serving deadline then scales with
//      the measured service time (12x the 1-shard solo latency, 40 ms
//      floor) unless --deadline_ms pins it: a fixed deadline comparable to
//      the service time makes every queued query a miss and the bench
//      measures the deadline constant, not overload behaviour.
//   3. Sweep per S: open-loop runs at 1x saturation (protected), 2x
//      (protected) and 2x (unprotected). Protected mode puts an adaptive
//      AdmissionController with SHORT queues in front (under open-loop
//      overload a long queue converts every answer into a deadline miss —
//      shedding fast is what preserves goodput) and a CircuitBreaker on
//      every non-final rung.
//   4. Queries come from per-user simulated activity streams: each user
//      keeps a sliding window of recent actions, and a served
//      recommendation feeds its top action back into the window — arrivals
//      are correlated per user, like a real session, not i.i.d. draws.
//   5. Goodput = full-quality (non-degraded) answers completing within the
//      deadline OF THEIR SCHEDULED ARRIVAL, per second of the arrival
//      horizon. peak_goodput is the best protected 1x point across shard
//      counts; protected_2x_goodput_ratio is the best protected 2x point
//      against that peak (the acceptance gate: >= 0.9).
//
// Flags: --duration_ms (per sweep point), --deadline_ms (0 = scale to the
// measured service time), --workers, --shards=CSV (override sweep),
// --seed, --smoke (short run for CI: scripts/check.sh run_shard_smoke
// invokes it).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/scaling.h"
#include "model/sharding.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/engine.h"
#include "serve/popularity_floor.h"
#include "serve/sharded.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kK = 10;
constexpr size_t kWindowCap = 10;

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

/// One sharded ladder: best_match → breadth (both fanned out over the
/// shard set) → popularity floor on the base library.
struct Ladder {
  Ladder(const goalrec::model::ImplementationLibrary& lib,
         std::shared_ptr<const goalrec::model::ShardedSnapshot> sharded,
         goalrec::util::ThreadPool* pool)
      : best_match(sharded, goalrec::serve::ShardedStrategy::kBestMatch, pool),
        breadth(sharded, goalrec::serve::ShardedStrategy::kBreadth, pool),
        floor(&lib) {}

  std::vector<goalrec::serve::ServingEngine::Rung> Rungs() {
    return {{"best_match", &best_match},
            {"breadth", &breadth},
            {"popularity", &floor}};
  }

  goalrec::serve::ShardedRecommender best_match;
  goalrec::serve::ShardedRecommender breadth;
  goalrec::serve::LibraryPopularityRecommender floor;
};

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(samples.size()));
  index = std::min(index, samples.size() - 1);
  return samples[index];
}

struct LoadPoint {
  std::string name;
  uint32_t shards = 0;
  bool protected_mode = false;
  bool open_loop = true;
  double offered_qps = 0.0;  // Poisson arrival rate (0 for the probe)
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

/// Builds a fresh engine over `ladder`. Protected mode: adaptive limiter
/// with deliberately SHORT queues (open-loop overload must shed, not
/// queue) and per-rung breakers.
void BuildEngine(EngineSetup& setup, Ladder& ladder, bool protected_mode,
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
  setup.engine.emplace(ladder.Rungs(), options);
}

/// Closed-loop capacity probe: one client, unprotected, measures the
/// no-load ladder latency. The deadline is wide open so a slow workload is
/// measured on the top rung instead of being truncated into a fallback.
double ProbeSoloLatencyMs(Ladder& ladder, UserStreams& streams,
                          int64_t duration_ms, uint64_t seed) {
  constexpr int64_t kProbeDeadlineMs = 2000;
  EngineSetup setup;
  BuildEngine(setup, ladder, /*protected_mode=*/false, kProbeDeadlineMs, 0.0,
              seed);
  Clock::time_point start = Clock::now();
  Clock::time_point stop_at = start + std::chrono::milliseconds(duration_ms);
  int64_t completed = 0;
  uint64_t q = 0;
  while (Clock::now() < stop_at) {
    goalrec::model::Activity activity = streams.Snapshot(q++);
    goalrec::util::StatusOr<goalrec::serve::ServeResult> served =
        setup.engine->Serve(activity, kK);
    if (served.ok()) {
      ++completed;
      if (!served->list.empty()) streams.Adopt(q - 1, served->list[0].action);
    }
  }
  double elapsed_ms =
      static_cast<double>((Clock::now() - start).count()) / 1e6;
  if (completed == 0) return static_cast<double>(kProbeDeadlineMs);
  return elapsed_ms / static_cast<double>(completed);
}

/// One open-loop run: Poisson arrivals at `offered_qps` over `duration_ms`,
/// claimed by a fixed worker pool. A worker sleeps until the arrival's
/// scheduled time, snapshots that user's activity window, serves, and
/// measures latency from the SCHEDULED arrival — a late start (all workers
/// busy = server behind) is charged to the query, as a real client would
/// experience it.
LoadPoint RunOpenLoop(const std::string& name, Ladder& ladder,
                      UserStreams& streams, uint32_t shards,
                      bool protected_mode, double offered_qps,
                      int64_t duration_ms, int64_t deadline_ms, int workers,
                      double baseline_ms, uint64_t seed) {
  EngineSetup setup;
  BuildEngine(setup, ladder, protected_mode, deadline_ms, baseline_ms, seed);

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
  point.shards = shards;
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
  point.p50_ms = PercentileMs(latencies, 0.50);
  point.p99_ms = PercentileMs(latencies, 0.99);
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
      "    {\"name\": \"%s\", \"shards\": %u, \"protected\": %s, "
      "\"offered_qps\": %.1f, \"duration_ms\": %lld,\n"
      "     \"offered\": %lld, \"completed\": %lld, \"good\": %lld, "
      "\"shed\": %lld, \"unavailable\": %lld, \"degraded\": %lld,\n"
      "     \"goodput_qps\": %.1f, \"throughput_qps\": %.1f, "
      "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"final_limit\": %d, "
      "\"breaker_opens\": %lld}%s\n",
      p.name.c_str(), p.shards, p.protected_mode ? "true" : "false",
      p.offered_qps, static_cast<long long>(p.duration_ms),
      static_cast<long long>(p.offered), static_cast<long long>(p.completed),
      static_cast<long long>(p.good), static_cast<long long>(p.shed),
      static_cast<long long>(p.unavailable),
      static_cast<long long>(p.degraded), p.goodput_qps, p.throughput_qps,
      p.p50_ms, p.p99_ms, p.final_limit,
      static_cast<long long>(p.breaker_opens), last ? "" : ",");
}

std::vector<uint32_t> ParseShards(const std::string& csv,
                                  std::vector<uint32_t> fallback) {
  if (csv.empty()) return fallback;
  std::vector<uint32_t> shards;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    int value = std::atoi(csv.substr(pos, comma - pos).c_str());
    if (value > 0) shards.push_back(static_cast<uint32_t>(value));
    pos = comma + 1;
  }
  return shards.empty() ? fallback : shards;
}

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  const bool smoke = flags.Get<bool>("smoke", false);
  const int64_t duration_ms =
      flags.Get<int64_t>("duration_ms", smoke ? 250 : 4000);
  // 0 = auto: 12x the 1-shard solo latency (40 ms floor, 1 s cap), fixed
  // after the first capacity probe so every shard count runs under the same
  // deadline.
  int64_t deadline_ms = flags.Get<int64_t>("deadline_ms", 0);
  // Enough client workers that arrivals reach the server even when it is
  // behind: an open-loop generator starved of senders degenerates into a
  // closed loop (excess load queues client-side and the admission
  // controller never sees it). Sheds are near-instant, so workers churn.
  const int workers = flags.Get<int>("workers", smoke ? 16 : 32);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 17));
  std::vector<uint32_t> shard_sweep = ParseShards(
      flags.GetString("shards"),
      smoke ? std::vector<uint32_t>{1, 2} : std::vector<uint32_t>{1, 2, 4, 8});

  // Full mode builds a multi-million-implementation library — the scale at
  // which a single CSR scan per query is the bottleneck sharding exists
  // for. Smoke keeps CI fast.
  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 50000 : 2000000;
  workload.num_actions = smoke ? 5000 : 40000;
  workload.implementation_size = 6;
  goalrec::model::ImplementationLibrary lib =
      goalrec::eval::BuildScalingLibrary(workload, 9);

  const size_t num_users = smoke ? 512 : 4096;
  uint32_t max_shards = 1;
  for (uint32_t s : shard_sweep) max_shards = std::max(max_shards, s);
  goalrec::util::ThreadPool fanout_pool(
      std::max<uint32_t>(1, max_shards - 1));

  std::vector<LoadPoint> points;
  double peak_goodput = 0.0;       // best protected 1x across shard counts
  double best_2x_goodput = 0.0;    // best protected 2x across shard counts
  uint32_t best_2x_shards = 0;
  std::printf("{\n");
  std::printf("  \"benchmark\": \"micro_overload\",\n");
  std::printf("  \"mode\": \"open_loop_poisson\",\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf(
      "  \"workload\": {\"implementations\": %u, \"actions\": %u, "
      "\"implementation_size\": %u, \"users\": %zu},\n",
      workload.num_implementations, workload.num_actions,
      workload.implementation_size, num_users);
  std::printf("  \"workers\": %d,\n", workers);
  std::printf("  \"sweeps\": [\n");
  for (size_t si = 0; si < shard_sweep.size(); ++si) {
    const uint32_t shards = shard_sweep[si];
    auto sharded = goalrec::model::BuildShardedSnapshot(lib, shards);
    Ladder ladder(lib, sharded, shards > 1 ? &fanout_pool : nullptr);
    UserStreams streams(num_users, lib.num_actions(), seed + shards);

    const double solo_ms =
        ProbeSoloLatencyMs(ladder, streams, duration_ms, seed + shards);
    const double capacity_qps = 1e3 / std::max(solo_ms, 0.05);
    if (si == 0 && deadline_ms <= 0) {
      deadline_ms = std::clamp<int64_t>(
          static_cast<int64_t>(std::ceil(12.0 * solo_ms)), 40, 1000);
    }

    LoadPoint p1x = RunOpenLoop(
        "shards" + std::to_string(shards) + "_protected_1x", ladder, streams,
        shards, /*protected=*/true, capacity_qps, duration_ms, deadline_ms,
        workers, solo_ms, seed + 100 + shards);
    LoadPoint p2x = RunOpenLoop(
        "shards" + std::to_string(shards) + "_protected_2x", ladder, streams,
        shards, /*protected=*/true, 2.0 * capacity_qps, duration_ms,
        deadline_ms, workers, solo_ms, seed + 200 + shards);
    LoadPoint u2x = RunOpenLoop(
        "shards" + std::to_string(shards) + "_unprotected_2x", ladder,
        streams, shards, /*protected=*/false, 2.0 * capacity_qps, duration_ms,
        deadline_ms, workers, solo_ms, seed + 300 + shards);
    peak_goodput = std::max(peak_goodput, p1x.goodput_qps);
    if (p2x.goodput_qps > best_2x_goodput) {
      best_2x_goodput = p2x.goodput_qps;
      best_2x_shards = shards;
    }

    std::printf("    {\"shards\": %u, \"solo_latency_ms\": %.3f, "
                "\"capacity_qps\": %.1f}%s\n",
                shards, solo_ms, capacity_qps,
                si + 1 == shard_sweep.size() ? "" : ",");
    points.push_back(p1x);
    points.push_back(p2x);
    points.push_back(u2x);
  }
  std::printf("  ],\n");
  std::printf("  \"deadline_ms\": %lld,\n", static_cast<long long>(deadline_ms));
  std::printf("  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    PrintPoint(points[i], i + 1 == points.size());
  }
  std::printf("  ],\n");
  const double protected_ratio =
      peak_goodput > 0.0 ? best_2x_goodput / peak_goodput : 0.0;
  double unprotected_best = 0.0;
  for (const LoadPoint& p : points) {
    if (!p.protected_mode) {
      unprotected_best = std::max(unprotected_best, p.goodput_qps);
    }
  }
  std::printf("  \"peak_goodput_qps\": %.1f,\n", peak_goodput);
  std::printf("  \"best_protected_2x_shards\": %u,\n", best_2x_shards);
  std::printf("  \"protected_2x_goodput_ratio\": %.3f,\n", protected_ratio);
  std::printf("  \"unprotected_2x_goodput_ratio\": %.3f\n",
              peak_goodput > 0.0 ? unprotected_best / peak_goodput : 0.0);
  std::printf("}\n");
  return 0;
}
