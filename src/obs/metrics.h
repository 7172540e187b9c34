#ifndef GOALREC_OBS_METRICS_H_
#define GOALREC_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// Runtime metrics for the serving path. A MetricRegistry owns named
// Counter / Gauge / Histogram instruments; instrumentation sites look a
// metric up once (mutex-guarded) and keep the returned pointer, so the hot
// ranking loops pay one relaxed atomic RMW per event and nothing else.
//
// Counters and histograms are sharded across kNumShards cache-line-padded
// cells indexed by a thread-local id: concurrent writers on different
// threads touch different cache lines, so the fast path is an uncontended
// fetch_add with std::memory_order_relaxed. Readers merge the shards on
// scrape; a scrape concurrent with writers yields a slightly stale but
// torn-free view (every cell is read atomically), which is the standard
// contract for monitoring data.
//
// Building with -DGOALREC_OBS_NOOP compiles every increment/observe out
// (registration and scraping still work, all values read zero); the
// overhead comparison in docs/observability.md uses it as the baseline.

namespace goalrec::obs {

#ifdef GOALREC_OBS_NOOP
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

namespace internal {

/// Shard fan-out. Power of two so the thread-id hash is a mask.
inline constexpr size_t kNumShards = 16;

/// Stable per-thread shard index. Threads are numbered in creation order,
/// so a fixed pool hits a fixed shard each (no migration churn).
inline size_t ShardIndex() {
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t id =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return id & (kNumShards - 1);
}

/// One cache line per cell so shards do not false-share.
struct alignas(64) PaddedCell {
  std::atomic<int64_t> value{0};
};

}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    if constexpr (!kObsEnabled) return;
    shards_[internal::ShardIndex()].value.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }

  /// Merged value across shards. Torn-free but may trail concurrent writers.
  int64_t Value() const {
    int64_t total = 0;
    for (const internal::PaddedCell& cell : shards_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricRegistry;
  Counter() = default;
  internal::PaddedCell shards_[internal::kNumShards];
};

/// Point-in-time level (queue depth, resident bytes). Unlike Counter a
/// gauge supports Set and negative deltas; a single atomic suffices because
/// gauges are updated per task/queue event, not per ranked candidate.
class Gauge {
 public:
  void Set(int64_t value) {
    if constexpr (!kObsEnabled) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if constexpr (!kObsEnabled) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Sub(int64_t delta) { Add(-delta); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// One bucket's attached exemplar (OpenMetrics): the observed value plus
/// the trace/query id linking back to the concrete event.
struct HistogramExemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
  bool set = false;
};

/// Merged read-side view of a Histogram.
struct HistogramSnapshot {
  /// Upper bounds, ascending; the implicit +Inf bucket is counts.back().
  std::vector<double> bounds;
  /// Per-bucket counts, size bounds.size() + 1.
  std::vector<int64_t> counts;
  int64_t count = 0;  // total observations
  double sum = 0.0;   // sum of observed values
  /// Per-bucket exemplars, size bounds.size() + 1; empty when none were
  /// ever attached (the common case for non-latency histograms).
  std::vector<HistogramExemplar> exemplars;
};

/// Distribution of a value (latencies, sizes) over fixed upper-bound
/// buckets. Observe is a binary search plus two relaxed RMWs on the
/// caller's shard.
class Histogram {
 public:
  void Observe(double value);

  /// Attaches an exemplar to the bucket `value` falls in, replacing the
  /// bucket's previous one. Mutex-guarded — callers already gate on
  /// ExemplarReservoir::WorthCapturing, so this runs a handful of times per
  /// histogram refresh, never per query. No-op under GOALREC_OBS_NOOP.
  void AttachExemplar(double value, uint64_t trace_id);

  /// Merges all shards into one snapshot.
  HistogramSnapshot Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricRegistry;
  explicit Histogram(std::vector<double> bounds);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;  // ascending upper bounds
  Shard shards_[internal::kNumShards];

  mutable std::mutex exemplar_mu_;
  /// Lazily sized to bounds_.size() + 1 on first attach.
  std::vector<HistogramExemplar> exemplars_;
};

/// `count` bucket bounds: start, start*factor, start*factor^2, ...
/// Requires start > 0, factor > 1, count >= 1.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// `count` bucket bounds: start, start+width, start+2*width, ...
/// Requires width > 0, count >= 1.
std::vector<double> LinearBuckets(double start, double width, size_t count);

/// Default latency buckets in microseconds: 1us .. ~16s, powers of two.
std::vector<double> DefaultLatencyBucketsUs();

/// Sorted key/value pairs distinguishing instruments of one family, e.g.
/// {{"rung", "best_match"}, {"outcome", "served"}}.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeToString(MetricType type);

/// One instrument's merged state, as handed to the exporters.
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  LabelSet labels;
  /// Counter/Gauge value; unused for histograms.
  int64_t value = 0;
  /// Histogram state; empty otherwise.
  HistogramSnapshot histogram;
};

/// Full scrape: metrics sorted by (name, labels) for stable exporter output.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  /// First metric matching name+labels, or nullptr. Test convenience.
  const MetricSnapshot* Find(const std::string& name,
                             const LabelSet& labels = {}) const;
};

/// Owns all instruments of one process domain. Get* registers on first use
/// and returns the existing instrument afterwards (same name + labels ==
/// same pointer); pointers stay valid for the registry's lifetime.
/// Re-registering a name with a different type, or a histogram with
/// different bounds, is a programming error and aborts via GOALREC_CHECK.
///
/// Thread-safe. Instrument lookups take a mutex — do them at construction
/// time, not per event.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const LabelSet& labels = {},
                          const std::string& help = "");

  /// Merged view of every registered instrument. Scrape hooks run first
  /// (outside the registry lock), so gauges they refresh are current in the
  /// returned snapshot.
  RegistrySnapshot Snapshot() const;

  /// Registers a callback invoked at the start of every Snapshot() — i.e.
  /// on every export/scrape — for gauges whose value is a function of time
  /// rather than of events (e.g. goalrec_snapshot_age_seconds, which would
  /// otherwise freeze between reloads). Hooks run outside the registry
  /// lock and must only touch lock-free instrument operations (Gauge::Set
  /// and friends). Returns an id for RemoveScrapeHook.
  uint64_t AddScrapeHook(std::function<void()> hook);

  /// Deregisters a hook. Call before anything the hook captures dies.
  void RemoveScrapeHook(uint64_t id);

  /// The process-wide registry that built-in instrumentation (serving
  /// engine defaults, thread pool, retry, library loaders) reports into.
  static MetricRegistry& Default();

 private:
  struct Instrument {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<double> bounds;  // histograms only
    std::map<LabelSet, Instrument> instruments;
  };

  Family* FamilyFor(const std::string& name, MetricType type,
                    const std::string& help);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;

  /// Scrape hooks, under their own mutex so a hook calling back into
  /// instrument reads can never deadlock against the registry lock.
  mutable std::mutex hooks_mutex_;
  std::map<uint64_t, std::function<void()>> hooks_;
  uint64_t next_hook_id_ = 1;
};

}  // namespace goalrec::obs

#endif  // GOALREC_OBS_METRICS_H_
