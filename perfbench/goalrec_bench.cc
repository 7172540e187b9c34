// goalrec_bench: the repository benchmark. One binary, three workloads, each
// driven only through the library's public functions.
//
//   goalrec_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir>
//
// Workloads (fixed load: every rate, limit, size and thread count is a
// constant below; nothing is calibrated at run time):
//   session_foodmart  RecommendationSession walks of FoodMart carts, one
//                     Perform + Recommend per step, nproc closed-loop users.
//   reload_delta      DeltaLog appends published through SnapshotManager at
//                     a fixed rate, beside open-loop then closed-loop queries.
//   eval_foodmart     eval::Suite::RunAll with the paper's roster over
//                     held-out FoodMart carts, in fixed-size batches.
//
// Every input is drawn up front from --seed; no answer feeds a later input.
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, timed around calls into each
// layer from outside, plus the overhead of that timing. Lines before it
// describe the run (load, thread counts, gate details). Outputs are checked
// outside every timed operation; a mismatch sets "correct" to false and the
// process exits 1. The metric names and units must match BENCHMARK.json.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/best_match.h"
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "core/session.h"
#include "data/dataset.h"
#include "data/foodmart.h"
#include "eval/scaling.h"
#include "eval/suite.h"
#include "model/delta_log.h"
#include "model/library.h"
#include "model/sharding.h"
#include "model/snapshot.h"
#include "model/validate.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/engine.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace {

namespace gr = goalrec;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definitions. Changing any of these changes the benchmark.

constexpr size_t kK = 10;
constexpr int kSetupRepeats = 5;     // setup_s is the median of these
constexpr uint64_t kHeldOutSeed = 1000003;  // for confirming later claims
constexpr uint64_t kLibrarySeed = 9;        // libraries do not vary by seed

// session_foodmart
constexpr double kSessionTailPct = 99.0;
constexpr double kSessionWarmupS = 0.5;

// reload_delta
constexpr uint32_t kReloadImpls = 100000;
constexpr uint32_t kReloadActions = 2000;
constexpr uint32_t kImplSize = 6;        // actions per implementation
constexpr uint32_t kActivitySize = 8;    // actions per query
constexpr uint32_t kReloadShards = 4;
// Closed-loop capacity of this ladder while the writer publishes: the
// reload_delta throughput_per_s median over five ten-seed sets of 20 s runs
// on a 4-vCPU x86 VM was 571, 578, 625, 581 and 570 queries/s. Open-loop
// queries arrive at a sixth of it, so they seldom queue behind one another
// and their latency is the serving path plus what the publishes take from
// it. Each run records the offered rate as a share of the throughput it
// measured.
constexpr double kReloadCapacityQps = 600.0;
constexpr double kReloadOpenLoadShare = 1.0 / 6.0;
constexpr double kReloadQueryQps = kReloadCapacityQps * kReloadOpenLoadShare;
constexpr double kReloadPublishHz = 5.0;      // fixed write rate
constexpr int kReloadCompactEvery = 8;        // segments between compactions
constexpr double kReloadLimitMs = 500.0;
constexpr int64_t kReloadDeadlineMs = 1000;
constexpr double kReloadOpenShare = 0.55;
constexpr double kReloadTailPct = 75.0;       // of publish latency
constexpr uint32_t kAppendsPerSegment = 4;
constexpr uint32_t kTombstonesPerSegment = 2;

// eval_foodmart
// A batch of 64 carts is 16 per thread on 4 cores, so one slow thread or a
// short stall moves a batch's time less than with fewer carts per thread.
constexpr size_t kEvalBatch = 64;
constexpr uint32_t kEvalHoldOutEvery = 4;     // every 4th cart is held out
constexpr size_t kEvalGateBatches = 1;        // re-run at 1 thread
constexpr double kEvalTailPct = 90.0;

// reload_delta's correctness gate: the writer pins every compaction's
// version and every kGatePinEvery-th published segment's version, at most
// kGateMaxPinned at a time; each pin checks up to kGateAnswersPerVersion
// answers served by it.
constexpr size_t kGatePinEvery = 8;
constexpr size_t kGateMaxPinned = 3;
constexpr size_t kGateAnswersPerVersion = 4;

constexpr size_t kProbeQueries = 48;

// ---------------------------------------------------------------------------
// Small helpers.

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile, p in (0, 100]; 0 for no samples.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}
double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}
double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}
/// Samples strictly above the nearest-rank p-th percentile.
size_t SamplesBeyond(size_t n, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t Nproc() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

/// Bitwise equality of two lists: same actions, same score bits.
bool SameList(const gr::core::RecommendationList& a,
              const gr::core::RecommendationList& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].action != b[i].action ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
uint64_t HashList(const gr::core::RecommendationList& list) {
  uint64_t h = list.size();
  for (const gr::core::ScoredAction& s : list) {
    h = Mix(h, s.action);
    h = Mix(h, std::bit_cast<uint64_t>(s.score));
  }
  return h;
}

uint64_t Postings(const gr::model::ImplementationLibrary& lib,
                  gr::util::IdSpan activity) {
  uint64_t total = 0;
  for (gr::model::ActionId a : activity) {
    if (a < lib.num_actions()) total += lib.ImplsOfAction(a).size();
  }
  return total;
}

/// `size` distinct uniform actions, sorted.
gr::model::Activity DrawActivity(gr::util::Rng& rng, uint32_t num_actions,
                                 uint32_t size) {
  std::vector<uint32_t> ids = rng.SampleWithoutReplacement(num_actions, size);
  gr::model::Activity activity(ids.begin(), ids.end());
  gr::util::Normalize(activity);
  return activity;
}

// ---------------------------------------------------------------------------
// Report: metrics by name plus free-form run facts.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.engine.serve_us.p50", "us"},
    {"serve.engine.serve_us.p99", "us"},
    {"serve.sched_wait_ms.p99", "ms"},
    {"serve.rung_us.best_match.p50", "us"},
    {"serve.rung_us.breadth.p50", "us"},
    {"serve.served_by.best_match", "count"},
    {"serve.served_by.breadth", "count"},
    {"serve.served_by.popularity", "count"},
    {"serve.shed", "count"},
    {"serve.unavailable", "count"},
    {"serve.sharded.best_match_us", "us"},
    {"core.best_match.shard_us.max", "us"},
    {"core.best_match.shard_us.min", "us"},
    {"serve.fanout.skew_us", "us"},
    {"serve.fanout.overhead_us", "us"},
    {"core.best_match.unsharded_us", "us"},
    {"serve.fanout.speedup", "ratio"},
    {"core.postings_per_query", "count"},
    {"core.session.perform_us", "us"},
    {"core.session.recommend_us.Focus_cmp", "us"},
    {"core.session.recommend_us.Focus_cl", "us"},
    {"core.session.recommend_us.Breadth", "us"},
    {"core.session.recommend_us.BestMatch", "us"},
    {"core.pooled_us.Focus_cmp", "us"},
    {"core.pooled_us.Focus_cl", "us"},
    {"core.pooled_us.Breadth", "us"},
    {"core.pooled_us.BestMatch", "us"},
    {"core.session.pooled_gap", "ratio"},
    {"core.session.new_postings_share", "ratio"},
    {"model.delta.append_ms", "ms"},
    {"serve.reload_ms", "ms"},
    {"model.delta.compact_ms", "ms"},
    {"model.shard_build_ms", "ms"},
    {"model.validate_ms", "ms"},
    {"serve.engine.serve_us.p99_reloading", "us"},
    {"serve.engine.serve_us.p99_quiet", "us"},
    {"serve.reload_failures", "count"},
    {"eval.suite_init_ms", "ms"},
    {"eval.method_us.Focus_cmp", "us"},
    {"eval.method_us.Focus_cl", "us"},
    {"eval.method_us.Breadth", "us"},
    {"eval.method_us.BestMatch", "us"},
    {"eval.method_us.CF_kNN", "us"},
    {"eval.method_us.CF_MF", "us"},
    {"eval.method_us.Content", "us"},
    {"eval.parallel_efficiency", "ratio"},
    {"eval.workspaces_created", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Fact(const std::string& key, const std::string& json_value) {
    facts_.emplace_back(key, json_value);
  }
  void Fact(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Fact(key, std::string(buf));
  }
  void Mismatch(const std::string& what) {
    ++mismatches_;
    if (mismatch_notes_.size() < 8) mismatch_notes_.push_back(what);
  }
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  size_t mismatches() const { return mismatches_; }

  /// Prints the fact line and then the result line. Metrics a workload does
  /// not exercise are reported as 0 (per-layer only). Returns the exit code.
  int Print(const std::string& workload, bool trace) const {
    std::string facts = "{\"workload\": \"" + workload + "\"";
    for (const auto& [key, value] : facts_) {
      facts += ", \"" + key + "\": " + value;
    }
    facts += ", \"mismatches\": " + std::to_string(mismatches_);
    facts += ", \"mismatch_notes\": [";
    for (size_t i = 0; i < mismatch_notes_.size(); ++i) {
      facts += (i ? ", \"" : "\"") + mismatch_notes_[i] + "\"";
    }
    facts += "]}";
    std::printf("%s\n", facts.c_str());

    const bool correct = mismatches_ == 0;
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricSpec& spec) {
      auto it = values_.find(spec.name);
      double value = it == values_.end() ? 0.0 : it->second;
      if (!std::isfinite(value)) value = 0.0;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      line += std::string(first ? "" : ", ") + "\"" + spec.name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit + "\"}";
      first = false;
    };
    if (trace) {
      for (const MetricSpec& spec : kPerLayer) emit(spec);
    } else {
      for (const MetricSpec& spec : kEndToEnd) {
        auto it = values_.find(spec.name);
        if (it == values_.end() || !std::isfinite(it->second)) {
          std::fprintf(stderr, "internal error: metric %s not measured\n",
                       spec.name);
          return 2;
        }
        emit(spec);
      }
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::string> mismatch_notes_;
  size_t mismatches_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Runs `build` kSetupRepeats times, keeping the last result; returns the
/// median wall time in seconds. Earlier results are destroyed before the
/// next build starts so peak memory reflects one set-up.
template <typename T>
double TimedSetup(std::unique_ptr<T>& out,
                  const std::function<std::unique_ptr<T>()>& build) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    out.reset();
    Clock::time_point start = Clock::now();
    out = build();
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return Median(seconds);
}

// ---------------------------------------------------------------------------
// Load generators. Clients are plain threads, at most nproc of them.

struct Arrival {
  double at_s = 0.0;
  uint32_t input = 0;
};

std::vector<Arrival> PoissonArrivals(double rate, double horizon_s,
                                     uint32_t num_inputs, gr::util::Rng& rng) {
  std::vector<Arrival> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.UniformDouble()) / rate;
    if (t >= horizon_s) break;
    arrivals.push_back({t, rng.UniformUint32(num_inputs)});
  }
  return arrivals;
}

struct LoopStats {
  std::vector<double> latency_ms;     // per completed op
  std::vector<double> sched_wait_ms;  // open loop: scheduled -> op start
  std::vector<double> gen_lag_ms;     // open loop: idle client woke late
  int64_t attempted = 0;
  int64_t failed = 0;
  double elapsed_s = 0.0;
};

void Merge(LoopStats& into, const LoopStats& from) {
  Append(into.latency_ms, from.latency_ms);
  Append(into.sched_wait_ms, from.sched_wait_ms);
  Append(into.gen_lag_ms, from.gen_lag_ms);
  into.attempted += from.attempted;
  into.failed += from.failed;
}

/// Open loop: op(client, arrival_index, scheduled) runs at each scheduled
/// arrival on whichever client is free and returns false on failure.
/// Latency counts from the scheduled arrival, so a client that starts late
/// charges the wait to the op.
template <typename Op>
LoopStats RunOpenLoop(const std::vector<Arrival>& arrivals, size_t clients,
                      const Op& op) {
  std::vector<LoopStats> per_client(clients);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& mine = per_client[c];
      while (true) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= arrivals.size()) break;
        const Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrivals[i].at_s));
        if (Clock::now() < scheduled) {
          std::this_thread::sleep_until(scheduled);
          mine.gen_lag_ms.push_back(Ms(Clock::now() - scheduled));
        }
        const Clock::time_point begin = Clock::now();
        mine.sched_wait_ms.push_back(Ms(begin - scheduled));
        const bool ok = op(c, i, scheduled);
        mine.latency_ms.push_back(Ms(Clock::now() - scheduled));
        ++mine.attempted;
        if (!ok) ++mine.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopStats total;
  for (const LoopStats& s : per_client) Merge(total, s);
  total.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

/// Closed loop: each client runs op(client, iteration) back to back until
/// `seconds` pass; op returns false on failure.
template <typename Op>
LoopStats RunClosedLoop(size_t clients, double seconds, const Op& op) {
  std::vector<LoopStats> per_client(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& mine = per_client[c];
      for (size_t it = 0; Clock::now() < stop_at; ++it) {
        const Clock::time_point begin = Clock::now();
        const bool ok = op(c, it);
        mine.latency_ms.push_back(Ms(Clock::now() - begin));
        ++mine.attempted;
        if (!ok) ++mine.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopStats total;
  for (const LoopStats& s : per_client) Merge(total, s);
  total.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

/// Closed-loop throughput: work done over the loop's wall time.
double Throughput(const LoopStats& loop, double ops_per_call = 1.0) {
  return static_cast<double>(loop.attempted - loop.failed) * ops_per_call /
         loop.elapsed_s;
}

/// Latency percentiles for the run facts.
std::string PercentileFacts(const std::vector<double>& samples) {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    std::snprintf(buf, sizeof(buf), "%s\"p%g\": %.4g", first ? "" : ", ", p,
                  Percentile(samples, p));
    out += buf;
    first = false;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Serving helpers for reload_delta.

/// Failure classes of one served query; every one counts as failed.
struct ServeCounts {
  int64_t shed = 0, unavailable = 0, degraded = 0, over_limit = 0;
  std::map<std::string, int64_t> served_by;
  std::vector<double> serve_us;
  std::map<std::string, std::vector<double>> rung_us;

  void Merge(const ServeCounts& o) {
    shed += o.shed;
    unavailable += o.unavailable;
    degraded += o.degraded;
    over_limit += o.over_limit;
    for (const auto& [k, v] : o.served_by) served_by[k] += v;
    Append(serve_us, o.serve_us);
    for (const auto& [k, v] : o.rung_us) Append(rung_us[k], v);
  }
};

std::string FailureFacts(const ServeCounts& counts, int64_t reload_failed) {
  return "{\"shed\": " + std::to_string(counts.shed) +
         ", \"unavailable\": " + std::to_string(counts.unavailable) +
         ", \"degraded\": " + std::to_string(counts.degraded) +
         ", \"over_limit\": " + std::to_string(counts.over_limit) +
         ", \"reload_failed\": " + std::to_string(reload_failed) + "}";
}

gr::serve::AdmissionOptions ServeAdmission(size_t clients,
                                           gr::obs::MetricRegistry* metrics) {
  gr::serve::AdmissionOptions options;
  // Never below the client count: below saturation admission must pass
  // every query, so a shed is a real failure rather than a setting.
  options.initial_limit = static_cast<int>(clients);
  options.min_limit = static_cast<int>(clients);
  options.max_limit = static_cast<int>(4 * clients);
  options.adaptive = true;
  options.max_queue_interactive = 64;
  options.metrics = metrics;
  return options;
}

gr::serve::CircuitBreakerOptions ServeBreaker() {
  gr::serve::CircuitBreakerOptions options;
  options.failure_threshold = 10;
  options.open_cooldown = std::chrono::milliseconds(250);
  options.seed = kLibrarySeed;
  return options;
}

/// Serves one query and classifies it. Returns the result when it was
/// served by the top rung within `limit_ms` of `scheduled`.
std::optional<gr::serve::ServeResult> ServeOne(
    const gr::serve::ServingEngine& engine,
    const gr::model::Activity& activity, Clock::time_point scheduled,
    double limit_ms, bool trace, ServeCounts& counts) {
  const Clock::time_point begin = Clock::now();
  gr::util::StatusOr<gr::serve::ServeResult> served =
      engine.Serve(activity, kK);
  const Clock::time_point end = Clock::now();
  if (trace) counts.serve_us.push_back(Us(end - begin));
  if (!served.ok()) {
    if (served.status().code() == gr::util::StatusCode::kResourceExhausted) {
      ++counts.shed;
    } else {
      ++counts.unavailable;
    }
    return std::nullopt;
  }
  if (trace) {
    ++counts.served_by[served->rung_name];
    for (const gr::serve::RungReport& rung : served->rungs) {
      counts.rung_us[rung.name].push_back(
          std::chrono::duration<double, std::micro>(rung.latency).count());
    }
  }
  if (served->degraded) {
    ++counts.degraded;
    return std::nullopt;
  }
  if (Ms(end - scheduled) > limit_ms) {
    ++counts.over_limit;
    return std::nullopt;
  }
  return std::move(served).value();
}

void ReportServeLayers(Report& report, const ServeCounts& counts,
                       const LoopStats& open) {
  report.Set("serve.engine.serve_us.p50", Median(counts.serve_us));
  report.Set("serve.engine.serve_us.p99", Percentile(counts.serve_us, 99.0));
  report.Set("serve.sched_wait_ms.p99", Percentile(open.sched_wait_ms, 99.0));
  auto rung = [&](const char* name) {
    auto it = counts.rung_us.find(name);
    return it == counts.rung_us.end() ? 0.0 : Median(it->second);
  };
  report.Set("serve.rung_us.best_match.p50", rung("best_match"));
  report.Set("serve.rung_us.breadth.p50", rung("breadth"));
  auto served = [&](const char* name) {
    auto it = counts.served_by.find(name);
    return it == counts.served_by.end() ? 0.0
                                        : static_cast<double>(it->second);
  };
  report.Set("serve.served_by.best_match", served("best_match"));
  report.Set("serve.served_by.breadth", served("breadth"));
  report.Set("serve.served_by.popularity", served("popularity"));
  report.Set("serve.shed", static_cast<double>(counts.shed));
  report.Set("serve.unavailable", static_cast<double>(counts.unavailable));
  report.Set("bench.gen_lag_p99_ms", Percentile(open.gen_lag_ms, 99.0));
}

/// Fan-out probe, outside any load: the same activities through the sharded
/// BestMatch rung, through each shard's kernel alone, and through the
/// unsharded kernel on the base library, all with warm workspaces.
void ProbeFanout(Report& report, const gr::serve::ShardedRecommender& sharded,
                 const gr::model::ImplementationLibrary& base,
                 const std::vector<gr::model::Activity>& activities) {
  const gr::model::ShardedSnapshot& shards = sharded.sharded();
  std::vector<std::unique_ptr<gr::core::BestMatchRecommender>> shard_kernels;
  for (uint32_t s = 0; s < shards.num_shards; ++s) {
    shard_kernels.push_back(std::make_unique<gr::core::BestMatchRecommender>(
        &shards.shard_library(s)));
  }
  gr::core::BestMatchRecommender unsharded(&base);
  gr::core::QueryWorkspace root_ws, shard_ws, base_ws;
  gr::core::RecommendationList out;
  std::vector<double> sharded_us, max_us, min_us, skew_us, overhead_us,
      unsharded_us;
  for (size_t pass = 0; pass < 2; ++pass) {  // pass 0 warms
    for (size_t i = 0; i < activities.size() && i < kProbeQueries; ++i) {
      gr::util::IdSpan span(activities[i]);
      Clock::time_point t0 = Clock::now();
      sharded.RecommendPooled(span, kK, nullptr, &root_ws, out);
      const double fan = Us(Clock::now() - t0);
      double hi = 0.0, lo = 1e300;
      for (const auto& kernel : shard_kernels) {
        t0 = Clock::now();
        kernel->RecommendPooled(span, kK, nullptr, &shard_ws, out);
        const double us = Us(Clock::now() - t0);
        hi = std::max(hi, us);
        lo = std::min(lo, us);
      }
      t0 = Clock::now();
      unsharded.RecommendPooled(span, kK, nullptr, &base_ws, out);
      const double whole = Us(Clock::now() - t0);
      if (pass == 0) continue;
      sharded_us.push_back(fan);
      max_us.push_back(hi);
      min_us.push_back(lo);
      skew_us.push_back(hi - lo);
      overhead_us.push_back(fan - hi);
      unsharded_us.push_back(whole);
    }
  }
  const double sharded_p50 = Median(sharded_us);
  const double unsharded_p50 = Median(unsharded_us);
  report.Set("serve.sharded.best_match_us", sharded_p50);
  report.Set("core.best_match.shard_us.max", Median(max_us));
  report.Set("core.best_match.shard_us.min", Median(min_us));
  report.Set("serve.fanout.skew_us", Median(skew_us));
  report.Set("serve.fanout.overhead_us", Median(overhead_us));
  report.Set("core.best_match.unsharded_us", unsharded_p50);
  report.Set("serve.fanout.speedup",
             sharded_p50 > 0.0 ? unsharded_p50 / sharded_p50 : 0.0);
}

double MeanPostings(const gr::model::ImplementationLibrary& lib,
                    const std::vector<gr::model::Activity>& activities) {
  double total = 0.0;
  for (const gr::model::Activity& a : activities) {
    total += static_cast<double>(Postings(lib, a));
  }
  return activities.empty()
             ? 0.0
             : total / static_cast<double>(activities.size());
}

// ---------------------------------------------------------------------------
// session_foodmart

const char* const kStrategyNames[] = {"Focus_cmp", "Focus_cl", "Breadth",
                                      "BestMatch"};

struct FoodmartWorld {
  gr::data::Dataset dataset;
  std::vector<std::unique_ptr<gr::core::Recommender>> strategies;
};

std::unique_ptr<FoodmartWorld> BuildFoodmartWorld() {
  auto world = std::make_unique<FoodmartWorld>();
  gr::data::FoodmartOptions options;  // the paper-shaped defaults
  options.seed = kLibrarySeed;
  world->dataset = gr::data::GenerateFoodmart(options);
  const gr::model::ImplementationLibrary* lib = &world->dataset.library;
  world->strategies.push_back(std::make_unique<gr::core::FocusRecommender>(
      lib, gr::core::FocusVariant::kCompleteness));
  world->strategies.push_back(std::make_unique<gr::core::FocusRecommender>(
      lib, gr::core::FocusVariant::kCloseness));
  world->strategies.push_back(
      std::make_unique<gr::core::BreadthRecommender>(lib));
  world->strategies.push_back(
      std::make_unique<gr::core::BestMatchRecommender>(lib));
  return world;
}

int RunSessionFoodmart(uint64_t seed, double seconds, bool trace) {
  Report report;
  const size_t clients = Nproc();
  std::unique_ptr<FoodmartWorld> world;
  const double setup_s =
      TimedSetup<FoodmartWorld>(world, [] { return BuildFoodmartWorld(); });
  const gr::model::ImplementationLibrary& lib = world->dataset.library;

  // Inputs: the users' carts, in a seeded order, each walked in its
  // ordered_activity order (actions outside the library are dropped).
  // Strategies go to users round-robin by position in that order.
  std::vector<std::vector<gr::model::ActionId>> walks;
  for (const gr::data::UserRecord& user : world->dataset.users) {
    std::vector<gr::model::ActionId> walk;
    for (gr::model::ActionId a : user.ordered_activity) {
      if (a < lib.num_actions()) walk.push_back(a);
    }
    if (!walk.empty()) walks.push_back(std::move(walk));
  }
  gr::util::Rng rng(seed, /*stream=*/12);
  rng.Shuffle(walks);

  struct Step {
    uint32_t user = 0;
    uint32_t step = 0;
    uint64_t hash = 0;
  };
  struct Pass {
    LoopStats loop;
    std::vector<Step> steps;
    std::vector<double> perform_us;
    std::vector<std::vector<double>> recommend_us{4};
  };
  auto run_pass = [&](bool traced, double duration_s) {
    Pass pass;
    std::vector<std::vector<Step>> steps(clients);
    std::vector<std::vector<double>> perform_us(clients);
    std::vector<std::vector<std::vector<double>>> recommend_us(
        clients, std::vector<std::vector<double>>(4));
    std::atomic<size_t> next_user{0};
    struct Cursor {
      size_t user = SIZE_MAX;
      size_t step = 0;
      std::unique_ptr<gr::core::RecommendationSession> session;
    };
    std::vector<Cursor> cursors(clients);
    pass.loop = RunClosedLoop(clients, duration_s, [&](size_t c, size_t) {
      Cursor& cur = cursors[c];
      if (cur.user == SIZE_MAX || cur.step >= walks[cur.user].size()) {
        cur.user = next_user.fetch_add(1) % walks.size();
        cur.step = 0;
        cur.session = std::make_unique<gr::core::RecommendationSession>(
            &lib, world->strategies[cur.user % 4].get());
      }
      const size_t strategy = cur.user % 4;
      const Clock::time_point t0 = Clock::now();
      cur.session->Perform(walks[cur.user][cur.step]);
      const Clock::time_point t1 = Clock::now();
      gr::core::RecommendationList list = cur.session->Recommend(kK);
      if (traced) {
        perform_us[c].push_back(Us(t1 - t0));
        recommend_us[c][strategy].push_back(Us(Clock::now() - t1));
      }
      steps[c].push_back({static_cast<uint32_t>(cur.user),
                          static_cast<uint32_t>(cur.step), HashList(list)});
      ++cur.step;
      return true;
    });
    for (size_t c = 0; c < clients; ++c) {
      pass.steps.insert(pass.steps.end(), steps[c].begin(), steps[c].end());
      Append(pass.perform_us, perform_us[c]);
      for (size_t s = 0; s < 4; ++s) {
        Append(pass.recommend_us[s], recommend_us[c][s]);
      }
    }
    return pass;
  };

  // Warm-up: one short pass whose results are discarded.
  (void)run_pass(false, kSessionWarmupS);
  Pass untraced = run_pass(false, seconds);
  std::optional<Pass> traced;
  if (trace) traced = run_pass(true, seconds);

  // Correctness gate: every step equals a fresh pooled Recommend on the same
  // activity, recomputed on nproc threads with warm workspaces. The pooled
  // call times and postings counts double as per-layer numbers.
  std::vector<std::vector<double>> pooled_us(4);
  double postings_h = 0.0, postings_new = 0.0;
  std::mutex merge_mu;
  auto verify = [&](const Pass& pass) {
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&] {
        gr::core::QueryWorkspace ws;
        gr::core::RecommendationList out;
        std::vector<std::vector<double>> mine(4);
        std::vector<std::string> bad;
        double h_sum = 0.0, new_sum = 0.0;
        while (true) {
          size_t i = next.fetch_add(1);
          if (i >= pass.steps.size()) break;
          const Step& step = pass.steps[i];
          const std::vector<gr::model::ActionId>& walk = walks[step.user];
          gr::model::Activity activity(walk.begin(),
                                       walk.begin() + step.step + 1);
          gr::util::Normalize(activity);
          const size_t strategy = step.user % 4;
          const Clock::time_point t0 = Clock::now();
          world->strategies[strategy]->RecommendPooled(
              gr::util::IdSpan(activity), kK, nullptr, &ws, out);
          mine[strategy].push_back(Us(Clock::now() - t0));
          if (HashList(out) != step.hash) {
            bad.push_back("session user " + std::to_string(step.user) +
                          " step " + std::to_string(step.step));
          }
          h_sum += static_cast<double>(Postings(lib, activity));
          new_sum += static_cast<double>(
              lib.ImplsOfAction(walk[step.step]).size());
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        for (size_t s = 0; s < 4; ++s) Append(pooled_us[s], mine[s]);
        for (const std::string& b : bad) report.Mismatch(b);
        postings_h += h_sum;
        postings_new += new_sum;
      });
    }
    for (std::thread& t : threads) t.join();
  };
  verify(untraced);
  if (traced) verify(*traced);
  report.Count(untraced.loop.attempted, untraced.loop.failed);
  if (traced) report.Count(traced->loop.attempted, traced->loop.failed);
  report.Count(0, static_cast<int64_t>(report.mismatches()));

  const double p50 = Median(untraced.loop.latency_ms);
  report.Set("setup_s", setup_s);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("p50_ms", p50);
  report.Set("tail_ms", Percentile(untraced.loop.latency_ms, kSessionTailPct));
  report.Set("throughput_per_s", Throughput(untraced.loop));
  if (trace) {
    report.Set("core.session.perform_us", Median(traced->perform_us));
    double session_sum = 0.0, pooled_sum = 0.0;
    for (size_t s = 0; s < 4; ++s) {
      report.Set(std::string("core.session.recommend_us.") + kStrategyNames[s],
                 Median(traced->recommend_us[s]));
      report.Set(std::string("core.pooled_us.") + kStrategyNames[s],
                 Median(pooled_us[s]));
      for (double v : traced->recommend_us[s]) session_sum += v;
    }
    // The pooled calls cover untraced and traced steps; compare like with
    // like using per-step means.
    size_t pooled_n = 0;
    for (size_t s = 0; s < 4; ++s) {
      for (double v : pooled_us[s]) pooled_sum += v;
      pooled_n += pooled_us[s].size();
    }
    const double session_mean =
        session_sum / static_cast<double>(traced->steps.size());
    const double pooled_mean = pooled_sum / static_cast<double>(pooled_n);
    report.Set("core.session.pooled_gap",
               pooled_mean > 0.0 ? session_mean / pooled_mean : 0.0);
    report.Set("core.session.new_postings_share",
               postings_h > 0.0 ? postings_new / postings_h : 0.0);
    report.Set("core.postings_per_query",
               postings_h / static_cast<double>(pooled_n));
    const double traced_p50 = Median(traced->loop.latency_ms);
    report.Set("bench.trace_overhead_pct", 100.0 * (traced_p50 - p50) / p50);
  }

  report.Fact("nproc", static_cast<double>(Nproc()));
  report.Fact("client_threads", static_cast<double>(clients));
  report.Fact("fanout_pool_threads", 0.0);
  report.Fact("recipes", static_cast<double>(lib.num_implementations()));
  report.Fact("users", static_cast<double>(walks.size()));
  report.Fact("steps", static_cast<double>(untraced.loop.attempted));
  report.Fact("p50_ms_is", "\"one session step: Perform + Recommend(k)\"");
  report.Fact("tail_percentile", kSessionTailPct);
  report.Fact("tail_samples_beyond",
              static_cast<double>(SamplesBeyond(untraced.loop.latency_ms.size(),
                                                kSessionTailPct)));
  report.Fact("throughput_is", "\"steps_per_s: closed-loop steps per second\"");
  report.Fact("checked_steps", static_cast<double>(untraced.steps.size()));
  report.Fact("latency_ms", PercentileFacts(untraced.loop.latency_ms));
  return report.Print("session_foodmart", trace);
}

// ---------------------------------------------------------------------------
// reload_delta

struct ReloadWorld {
  std::string dir;
  std::vector<std::string> action_names;
  std::vector<std::string> goal_names;
  std::optional<gr::model::DeltaLog> writer;
  std::optional<gr::model::DeltaLog> reader;
  std::unique_ptr<gr::util::ThreadPool> fanout;
  gr::obs::MetricRegistry registry;
  std::unique_ptr<gr::serve::SnapshotManager> manager;
  std::optional<gr::serve::AdmissionController> admission;
  std::optional<gr::serve::ServingEngine> engine;

  ~ReloadWorld() {
    engine.reset();
    manager.reset();
    std::error_code ignored;
    if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
  }
};

std::unique_ptr<ReloadWorld> BuildReloadWorld(const std::string& dir,
                                              size_t clients) {
  auto world = std::make_unique<ReloadWorld>();
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  std::filesystem::create_directories(std::filesystem::path(dir).parent_path());
  world->dir = dir;
  gr::eval::ScalingWorkload workload;
  workload.num_implementations = kReloadImpls;
  workload.num_actions = kReloadActions;
  workload.implementation_size = kImplSize;
  gr::model::ImplementationLibrary lib =
      gr::eval::BuildScalingLibrary(workload, kLibrarySeed);
  for (uint32_t a = 0; a < lib.num_actions(); ++a) {
    world->action_names.emplace_back(lib.actions().Name(a));
  }
  for (uint32_t g = 0; g < lib.num_goals(); ++g) {
    world->goal_names.emplace_back(lib.goals().Name(g));
  }
  auto created = gr::model::DeltaLog::Create(dir, lib);
  if (!created.ok()) {
    std::fprintf(stderr, "DeltaLog::Create: %s\n",
                 created.status().ToString().c_str());
    std::exit(2);
  }
  world->writer.emplace(std::move(created).value());
  gr::model::DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  auto opened = gr::model::DeltaLog::Open(dir, reader_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "DeltaLog::Open: %s\n",
                 opened.status().ToString().c_str());
    std::exit(2);
  }
  world->reader.emplace(std::move(opened).value());
  world->fanout = std::make_unique<gr::util::ThreadPool>(kReloadShards - 1);
  gr::serve::ShardedLadderOptions ladder;
  ladder.num_shards = kReloadShards;
  ladder.pool = world->fanout.get();
  ladder.metrics = &world->registry;
  world->manager = std::make_unique<gr::serve::SnapshotManager>(
      gr::model::MakeSnapshot(world->reader->library(), dir),
      gr::serve::MakeShardedLadderFactory(ladder),
      gr::serve::ReloadGuardOptions{}, &world->registry);
  world->admission.emplace(ServeAdmission(clients, &world->registry));
  gr::serve::EngineOptions options;
  options.deadline_ms = kReloadDeadlineMs;
  options.metrics = &world->registry;
  options.admission = &*world->admission;
  options.breaker = ServeBreaker();
  world->engine.emplace(world->manager.get(), options);
  return world;
}

/// reload_delta's correctness gate, spread over a whole pass. The writer
/// pins versions as it publishes them; clients file answers served by a
/// pinned version. Pinning past kGateMaxPinned first checks the oldest pin's
/// answers against the unsharded BestMatch kernel on that version and
/// releases it, so few libraries stay alive and the checks run in the
/// writer's idle time, outside every timed operation. Drain() checks and
/// releases the rest once the pass has stopped.
class VersionGate {
 public:
  struct Counts {
    int64_t versions = 0, answers = 0;
    int64_t compaction_versions = 0, compaction_answers = 0;
  };

  explicit VersionGate(const std::vector<gr::model::Activity>* pool)
      : pool_(pool) {}

  /// Writer thread: `library` was just published, by a compaction or not.
  void Pin(std::shared_ptr<const gr::model::LibrarySnapshot> library,
           bool compaction) {
    std::optional<Pinned> oldest;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pinned_.size() >= kGateMaxPinned) {
        oldest = std::move(pinned_.front());
        pinned_.erase(pinned_.begin());
      }
      pinned_.push_back({std::move(library), compaction, {}});
    }
    if (oldest) Check(*oldest);
  }

  /// Client threads: an answer served by `version` for pool[input].
  void File(uint64_t version, uint32_t input,
            const gr::core::RecommendationList& list) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Pinned& p : pinned_) {
      if (p.library->version == version) {
        if (p.answers.size() < kGateAnswersPerVersion) {
          p.answers.push_back({input, list});
        }
        return;
      }
    }
  }

  /// After the writer and clients have stopped.
  void Drain() {
    std::vector<Pinned> rest;
    {
      std::lock_guard<std::mutex> lock(mu_);
      rest.swap(pinned_);
    }
    for (const Pinned& p : rest) Check(p);
  }

  const Counts& counts() const { return counts_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  struct Answer {
    uint32_t input = 0;
    gr::core::RecommendationList list;
  };
  struct Pinned {
    std::shared_ptr<const gr::model::LibrarySnapshot> library;
    bool compaction = false;
    std::vector<Answer> answers;
  };

  void Check(const Pinned& p) {
    gr::core::BestMatchRecommender reference(&p.library->library);
    for (const Answer& a : p.answers) {
      reference.RecommendPooled(gr::util::IdSpan((*pool_)[a.input]), kK,
                                nullptr, &ws_, expected_);
      if (!SameList(expected_, a.list)) {
        mismatches_.push_back("reload_delta version " +
                              std::to_string(p.library->version) + " input " +
                              std::to_string(a.input));
      }
    }
    const auto n = static_cast<int64_t>(p.answers.size());
    ++counts_.versions;
    counts_.answers += n;
    if (p.compaction) {
      ++counts_.compaction_versions;
      counts_.compaction_answers += n;
    }
  }

  const std::vector<gr::model::Activity>* pool_;
  std::mutex mu_;
  std::vector<Pinned> pinned_;  // oldest first
  // Check() runs on one thread at a time: the writer, then Drain's caller.
  gr::core::QueryWorkspace ws_;
  gr::core::RecommendationList expected_;
  Counts counts_;
  std::vector<std::string> mismatches_;
};

std::string GateFacts(const VersionGate::Counts& c) {
  return "{\"versions\": " + std::to_string(c.versions) +
         ", \"answers\": " + std::to_string(c.answers) +
         ", \"compaction_versions\": " +
         std::to_string(c.compaction_versions) +
         ", \"compaction_answers\": " + std::to_string(c.compaction_answers) +
         "}";
}

int RunReloadDelta(uint64_t seed, double seconds, bool trace,
                   const std::string& workdir) {
  Report report;
  const size_t clients = Nproc();
  std::unique_ptr<ReloadWorld> world;
  const std::string dir = workdir + "/reload_delta";
  const double setup_s = TimedSetup<ReloadWorld>(
      world, [&] { return BuildReloadWorld(dir, clients); });
  const uint32_t base_impls = kReloadImpls;

  // Inputs: query activities and schedule, and every delta segment.
  gr::util::Rng rng(seed, /*stream=*/13);
  std::vector<gr::model::Activity> pool(4096);
  for (gr::model::Activity& a : pool) {
    a = DrawActivity(rng, static_cast<uint32_t>(world->action_names.size()),
                     kActivitySize);
  }
  const double open_s = seconds * kReloadOpenShare;
  const size_t passes = trace ? 2 : 1;
  const size_t max_segments =
      passes * (static_cast<size_t>(std::ceil(kReloadPublishHz * seconds)) + 2);
  std::vector<gr::model::DeltaOps> segments(max_segments);
  std::vector<uint32_t> goal_order = rng.SampleWithoutReplacement(
      static_cast<uint32_t>(world->goal_names.size()),
      static_cast<uint32_t>(std::min<size_t>(max_segments,
                                             world->goal_names.size())));
  for (size_t s = 0; s < segments.size(); ++s) {
    for (uint32_t j = 0; j < kAppendsPerSegment; ++j) {
      gr::model::DeltaImplementation impl;
      impl.goal = "bench goal " + std::to_string(s) + "/" +
                  std::to_string(j / 2);
      for (uint32_t id : rng.SampleWithoutReplacement(
               static_cast<uint32_t>(world->action_names.size()),
               kImplSize)) {
        impl.actions.push_back(world->action_names[id]);
      }
      segments[s].appended.push_back(std::move(impl));
    }
    // Ids below the base size stay valid: appends outnumber tombstones, so
    // the logical id space never shrinks below it, compaction included.
    for (uint32_t j = 0; j < kTombstonesPerSegment; ++j) {
      segments[s].tombstoned_impls.push_back(rng.UniformUint32(base_impls));
    }
    if (s % 4 == 3 && s < goal_order.size()) {
      segments[s].tombstoned_goals.push_back(world->goal_names[goal_order[s]]);
    }
  }

  for (size_t i = 0; i < 2 * clients; ++i) {
    (void)world->engine->Serve(pool[pool.size() - 1 - i], kK);
  }

  struct Pass {
    LoopStats open, closed;
    ServeCounts counts;
    std::vector<double> publish_open_ms, append_ms, reload_ms, compact_ms,
        serve_us_reloading, serve_us_quiet;
    int64_t publishes = 0, reload_failures = 0;
    VersionGate::Counts gate;
    std::vector<std::string> gate_mismatches;
  };
  std::atomic<size_t> next_segment{0};

  std::vector<std::vector<Arrival>> schedules;
  for (size_t p = 0; p < passes; ++p) {
    schedules.push_back(PoissonArrivals(
        kReloadQueryQps, open_s, static_cast<uint32_t>(pool.size()), rng));
  }

  auto run_pass = [&](bool traced) {
    Pass pass;
    const std::vector<Arrival>& arrivals = schedules[traced ? 1 : 0];
    std::atomic<bool> reloading{false};
    std::atomic<bool> stop{false};
    std::atomic<bool> in_open{true};
    std::vector<ServeCounts> counts(clients);
    VersionGate gate(&pool);
    std::vector<std::vector<double>> busy_us(clients), quiet_us(clients);

    // The writer: a segment every 1/rate seconds, each appended and then
    // published through the reader; compaction every few segments.
    std::thread writer([&] {
      const Clock::time_point start = Clock::now();
      for (size_t n = 0; !stop.load(); ++n) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(n / kReloadPublishHz)));
        if (stop.load()) break;
        const size_t s = next_segment.fetch_add(1);
        if (s >= segments.size()) break;
        const uint64_t before = world->manager->current_version();
        const bool open_phase = in_open.load();
        const Clock::time_point t0 = Clock::now();
        gr::util::Status appended = world->writer->Append(segments[s]);
        const Clock::time_point t1 = Clock::now();
        reloading.store(true);
        gr::util::StatusOr<uint64_t> version =
            world->manager->ReloadFromDeltaLog(*world->reader);
        reloading.store(false);
        const Clock::time_point t2 = Clock::now();
        ++pass.publishes;
        if (!appended.ok() || !version.ok() ||
            world->manager->current_version() == before) {
          ++pass.reload_failures;
          std::fprintf(stderr, "publish %zu failed: %s %s\n", s,
                       appended.ToString().c_str(),
                       version.ok() ? "" : version.status().ToString().c_str());
          continue;
        }
        pass.append_ms.push_back(Ms(t1 - t0));
        pass.reload_ms.push_back(Ms(t2 - t1));
        if (open_phase) pass.publish_open_ms.push_back(Ms(t2 - t0));
        if (s % kGatePinEvery == kGatePinEvery / 2) {
          gate.Pin(world->manager->Acquire()->library, /*compaction=*/false);
        }
        if ((s + 1) % kReloadCompactEvery == 0) {
          const Clock::time_point c0 = Clock::now();
          gr::util::Status compacted = world->writer->Compact();
          reloading.store(true);
          gr::util::StatusOr<uint64_t> reloaded =
              world->manager->ReloadFromDeltaLog(*world->reader);
          reloading.store(false);
          if (!compacted.ok() || !reloaded.ok()) {
            ++pass.reload_failures;
            continue;
          }
          pass.compact_ms.push_back(Ms(Clock::now() - c0));
          gate.Pin(world->manager->Acquire()->library, /*compaction=*/true);
        }
      }
    });

    auto query = [&](size_t c, uint32_t input, Clock::time_point scheduled) {
      const bool during_reload = reloading.load(std::memory_order_relaxed);
      const Clock::time_point begin = Clock::now();
      std::optional<gr::serve::ServeResult> served =
          ServeOne(*world->engine, pool[input], scheduled, kReloadLimitMs,
                   traced, counts[c]);
      if (traced) {
        (during_reload || reloading.load(std::memory_order_relaxed)
             ? busy_us[c]
             : quiet_us[c])
            .push_back(Us(Clock::now() - begin));
      }
      if (!served) return false;
      gate.File(served->library_version, input, served->list);
      return true;
    };

    pass.open = RunOpenLoop(
        arrivals, clients,
        [&](size_t c, size_t i, Clock::time_point scheduled) {
          return query(c, arrivals[i].input, scheduled);
        });
    in_open.store(false);
    pass.closed =
        RunClosedLoop(clients, seconds - open_s, [&](size_t c, size_t it) {
          const uint32_t input =
              static_cast<uint32_t>((c + it * clients) % pool.size());
          return query(c, input, Clock::now());
        });
    stop.store(true);
    writer.join();
    gate.Drain();
    pass.gate = gate.counts();
    pass.gate_mismatches = gate.mismatches();
    for (size_t c = 0; c < clients; ++c) {
      pass.counts.Merge(counts[c]);
      Append(pass.serve_us_reloading, busy_us[c]);
      Append(pass.serve_us_quiet, quiet_us[c]);
    }
    return pass;
  };

  Pass untraced = run_pass(false);
  std::optional<Pass> traced;
  if (trace) traced = run_pass(true);
  const Pass& timed = traced ? *traced : untraced;

  // Correctness gate: answers filed against pinned versions equal the
  // unsharded kernel on the version that served them. A pass must have
  // checked answers, and answers from a compaction's version once it pinned
  // two or more (the last one may have no clients left to serve).
  for (const Pass* pass : {&untraced, traced ? &*traced : nullptr}) {
    if (pass == nullptr) continue;
    for (const std::string& what : pass->gate_mismatches) report.Mismatch(what);
    if (pass->publishes > 0 && pass->gate.answers == 0) {
      report.Mismatch("reload_delta gate checked no answers");
    }
    if (pass->gate.compaction_versions >= 2 &&
        pass->gate.compaction_answers == 0) {
      report.Mismatch("reload_delta gate checked no compaction answers");
    }
    report.Count(pass->open.attempted + pass->closed.attempted +
                     pass->publishes,
                 pass->open.failed + pass->closed.failed +
                     pass->reload_failures);
  }
  report.Count(0, static_cast<int64_t>(report.mismatches()));

  const double p50 = Median(untraced.publish_open_ms);
  report.Set("setup_s", setup_s);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("p50_ms", p50);
  report.Set("tail_ms", Percentile(untraced.publish_open_ms, kReloadTailPct));
  report.Set("throughput_per_s", Throughput(untraced.closed));
  if (trace) {
    ReportServeLayers(report, timed.counts, timed.open);
    report.Set("model.delta.append_ms", Median(timed.append_ms));
    report.Set("serve.reload_ms", Median(timed.reload_ms));
    report.Set("model.delta.compact_ms", Median(timed.compact_ms));
    report.Set("serve.engine.serve_us.p99_reloading",
               Percentile(timed.serve_us_reloading, 99.0));
    report.Set("serve.engine.serve_us.p99_quiet",
               Percentile(timed.serve_us_quiet, 99.0));
    report.Set("serve.reload_failures",
               static_cast<double>(untraced.reload_failures +
                                   timed.reload_failures));
    // The parts of a reload, timed on the library now being served.
    std::shared_ptr<const gr::serve::ServingSnapshot> current =
        world->manager->Acquire();
    const gr::model::ImplementationLibrary& served_lib =
        current->library->library;
    std::vector<double> shard_ms, validate_ms;
    for (int r = 0; r < 3; ++r) {
      Clock::time_point t0 = Clock::now();
      auto sharded = gr::model::BuildShardedSnapshot(served_lib, kReloadShards);
      shard_ms.push_back(Ms(Clock::now() - t0));
      t0 = Clock::now();
      gr::util::Status valid = gr::model::ValidateLibrary(served_lib);
      validate_ms.push_back(Ms(Clock::now() - t0));
      if (!valid.ok()) report.Mismatch("served library fails validation");
    }
    report.Set("model.shard_build_ms", Median(shard_ms));
    report.Set("model.validate_ms", Median(validate_ms));
    gr::serve::ShardedRecommender probe_rung(
        current->sharded, gr::serve::ShardedStrategy::kBestMatch,
        world->fanout.get());
    std::vector<gr::model::Activity> probe(pool.begin(),
                                           pool.begin() + kProbeQueries);
    ProbeFanout(report, probe_rung, served_lib, probe);
    report.Set("core.postings_per_query", MeanPostings(served_lib, pool));
    // The timers wrap the queries, so compare open-loop query latency.
    const double query_p50 = Median(untraced.open.latency_ms);
    report.Set("bench.trace_overhead_pct",
               100.0 * (Median(timed.open.latency_ms) - query_p50) / query_p50);
  }

  report.Fact("nproc", static_cast<double>(Nproc()));
  report.Fact("client_threads", static_cast<double>(clients));
  report.Fact("writer_threads", 1.0);
  report.Fact("fanout_pool_threads", static_cast<double>(kReloadShards - 1));
  report.Fact("shards", static_cast<double>(kReloadShards));
  report.Fact("base_implementations", static_cast<double>(kReloadImpls));
  report.Fact("offered_qps", kReloadQueryQps);
  report.Fact("offered_share_of_measured_capacity",
              kReloadQueryQps / Throughput(untraced.closed));
  report.Fact("publish_hz", kReloadPublishHz);
  report.Fact("compact_every", static_cast<double>(kReloadCompactEvery));
  report.Fact("latency_limit_ms", kReloadLimitMs);
  report.Fact("publishes", static_cast<double>(untraced.publishes));
  report.Fact("publishes_open_loop",
              static_cast<double>(untraced.publish_open_ms.size()));
  report.Fact("p50_ms_is",
              "\"publish latency: Append start until the new version serves, "
              "open-loop phase\"");
  report.Fact("tail_percentile", kReloadTailPct);
  report.Fact("tail_samples_beyond",
              static_cast<double>(SamplesBeyond(
                  untraced.publish_open_ms.size(), kReloadTailPct)));
  report.Fact("throughput_is",
              "\"closed-loop query completions per second while the writer "
              "publishes\"");
  report.Fact("query_latency_ms", PercentileFacts(untraced.open.latency_ms));
  report.Fact("failures",
              FailureFacts(untraced.counts, untraced.reload_failures));
  report.Fact("gate_untraced", GateFacts(untraced.gate));
  if (traced) report.Fact("gate_traced", GateFacts(traced->gate));
  report.Fact("gen_lag_p99_ms", Percentile(untraced.open.gen_lag_ms, 99.0));
  report.Fact("latency_ms", PercentileFacts(untraced.publish_open_ms));
  return report.Print("reload_delta", trace);
}

// ---------------------------------------------------------------------------
// eval_foodmart

struct EvalWorld {
  gr::data::Dataset dataset;
  std::vector<gr::model::Activity> held_out;
  std::unique_ptr<gr::eval::Suite> suite;
  double suite_init_ms = 0.0;
};

std::unique_ptr<EvalWorld> BuildEvalWorld() {
  auto world = std::make_unique<EvalWorld>();
  gr::data::FoodmartOptions options;
  options.seed = kLibrarySeed;
  world->dataset = gr::data::GenerateFoodmart(options);
  std::vector<gr::model::Activity> training;
  for (size_t u = 0; u < world->dataset.users.size(); ++u) {
    const gr::model::Activity& cart = world->dataset.users[u].full_activity;
    if (cart.empty()) continue;
    (u % kEvalHoldOutEvery == 0 ? world->held_out : training).push_back(cart);
  }
  const Clock::time_point t0 = Clock::now();
  world->suite = std::make_unique<gr::eval::Suite>(&world->dataset,
                                                   std::move(training));
  world->suite_init_ms = Ms(Clock::now() - t0);
  return world;
}

uint64_t HashResults(const std::vector<gr::eval::MethodResult>& results) {
  uint64_t h = results.size();
  for (const gr::eval::MethodResult& m : results) {
    for (const gr::core::RecommendationList& list : m.lists) {
      h = Mix(h, HashList(list));
    }
  }
  return h;
}

int RunEvalFoodmart(uint64_t seed, double seconds, bool trace) {
  Report report;
  const size_t threads = Nproc();
  std::unique_ptr<EvalWorld> world;
  std::vector<double> init_ms;
  const double setup_s = TimedSetup<EvalWorld>(world, [&] {
    auto built = BuildEvalWorld();
    init_ms.push_back(built->suite_init_ms);
    return built;
  });
  const gr::eval::Suite& suite = *world->suite;

  // Inputs: the held-out carts in a seeded order, cut into fixed batches.
  std::vector<gr::model::Activity> carts = world->held_out;
  gr::util::Rng rng(seed, /*stream=*/14);
  rng.Shuffle(carts);
  const size_t num_batches = carts.size() / kEvalBatch;
  auto batch = [&](size_t b) {
    const size_t first = (b % num_batches) * kEvalBatch;
    return std::vector<gr::model::Activity>(carts.begin() + first,
                                            carts.begin() + first + kEvalBatch);
  };

  (void)suite.RunAll(batch(num_batches - 1), kK, threads);  // warm-up

  struct Pass {
    LoopStats loop;
    std::vector<uint64_t> hashes;  // per batch, in order
  };
  auto run_pass = [&] {
    Pass pass;
    pass.loop = RunClosedLoop(1, seconds, [&](size_t, size_t it) {
      std::vector<gr::eval::MethodResult> results =
          suite.RunAll(batch(it), kK, threads);
      pass.hashes.push_back(HashResults(results));
      return true;
    });
    return pass;
  };
  Pass untraced = run_pass();
  std::optional<Pass> traced;
  if (trace) traced = run_pass();

  // Correctness gate: the first batches re-run on one thread checksum the
  // same as the timed nproc-thread run.
  std::vector<double> single_ms;
  for (size_t b = 0; b < kEvalGateBatches && b < untraced.hashes.size(); ++b) {
    const Clock::time_point t0 = Clock::now();
    const uint64_t h = HashResults(suite.RunAll(batch(b), kK, 1));
    single_ms.push_back(Ms(Clock::now() - t0));
    if (h != untraced.hashes[b] ||
        (traced && b < traced->hashes.size() && h != traced->hashes[b])) {
      report.Mismatch("eval batch " + std::to_string(b));
    }
  }
  // A mismatched batch fails every user in it.
  report.Count(untraced.loop.attempted * static_cast<int64_t>(kEvalBatch), 0);
  if (traced) {
    report.Count(traced->loop.attempted * static_cast<int64_t>(kEvalBatch), 0);
  }
  report.Count(0, static_cast<int64_t>(report.mismatches() * kEvalBatch));

  const double p50 = Median(untraced.loop.latency_ms);
  report.Set("setup_s", setup_s);
  report.Set("peak_rss_mb", PeakRssMb());
  report.Set("p50_ms", p50);
  report.Set("tail_ms", Percentile(untraced.loop.latency_ms, kEvalTailPct));
  const double users_per_s = Throughput(untraced.loop, kEvalBatch);
  report.Set("throughput_per_s", users_per_s);
  if (trace) {
    report.Set("eval.suite_init_ms", Median(init_ms));
    // Each method alone on one thread, over the first batch.
    const std::vector<gr::model::Activity> probe = batch(0);
    for (size_t m = 0; m < suite.size(); ++m) {
      const gr::core::Recommender& rec = suite.recommender(m);
      std::vector<double> us;
      for (const gr::model::Activity& cart : probe) {
        const Clock::time_point t0 = Clock::now();
        gr::core::RecommendationList list = rec.Recommend(cart, kK);
        us.push_back(Us(Clock::now() - t0));
      }
      report.Set("eval.method_us." + rec.name(), Mean(us));
    }
    const double single_users_per_s =
        static_cast<double>(kEvalBatch) / (Median(single_ms) / 1e3);
    report.Set("eval.parallel_efficiency",
               users_per_s /
                   (static_cast<double>(threads) * single_users_per_s));
    report.Set("eval.workspaces_created",
               static_cast<double>(suite.workspaces_created()));
    report.Set("core.postings_per_query",
               MeanPostings(world->dataset.library, probe));
    const double traced_p50 = Median(traced->loop.latency_ms);
    report.Set("bench.trace_overhead_pct", 100.0 * (traced_p50 - p50) / p50);
  }

  std::string names = "[";
  for (const std::string& name : suite.names()) {
    names += (names.size() > 1 ? ", \"" : "\"") + name + "\"";
  }
  names += "]";
  report.Fact("nproc", static_cast<double>(Nproc()));
  report.Fact("client_threads", 1.0);
  report.Fact("runall_threads", static_cast<double>(threads));
  report.Fact("fanout_pool_threads", 0.0);
  report.Fact("methods", names);
  report.Fact("held_out_carts", static_cast<double>(carts.size()));
  report.Fact("batch_carts", static_cast<double>(kEvalBatch));
  report.Fact("batches", static_cast<double>(untraced.loop.attempted));
  report.Fact("p50_ms_is", "\"one RunAll over a batch of carts\"");
  report.Fact("tail_percentile", kEvalTailPct);
  report.Fact("tail_samples_beyond",
              static_cast<double>(SamplesBeyond(untraced.loop.latency_ms.size(),
                                                kEvalTailPct)));
  report.Fact("throughput_is", "\"users_per_s: carts evaluated per second\"");
  report.Fact("checked_batches", static_cast<double>(single_ms.size()));
  report.Fact("latency_ms", PercentileFacts(untraced.loop.latency_ms));
  return report.Print("eval_foodmart", trace);
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: goalrec_bench --workload <session_foodmart|"
               "reload_delta|eval_foodmart> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) return Usage();
  }
  const std::string workload = args["workload"];
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  const std::string workdir =
      args.count("workdir") ? args["workdir"] : std::string(".bench_work");
  if (!(seconds > 0.0)) return Usage();

  std::printf("{\"seed\": %llu, \"held_out_seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(kHeldOutSeed), seconds,
              trace ? 1 : 0);
  if (workload == "session_foodmart") {
    return RunSessionFoodmart(seed, seconds, trace);
  }
  if (workload == "reload_delta") {
    return RunReloadDelta(seed, seconds, trace, workdir);
  }
  if (workload == "eval_foodmart") return RunEvalFoodmart(seed, seconds, trace);
  return Usage();
}
