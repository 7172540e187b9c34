#ifndef GOALREC_OBS_TRACE_H_
#define GOALREC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

// Per-query tracing. A Trace is a tree of timed spans with key/value
// annotations: the serving engine opens one span per rung attempt, the
// strategies annotate candidate-set sizes and early stops. Traces are
// sampled (TraceSampler) so the steady-state cost is a branch per query; a
// sampled query costs a few vector pushes plus a mutex the query almost
// always holds uncontended — no I/O.
//
// Cross-cutting code (the strategies, the shard fan-out) reaches the active
// trace through the thread-local CurrentTrace(), which the engine sets for
// the duration of each rung via ScopedTraceActivation — the same pattern as
// a request-scoped context in production RPC stacks. ThreadPool::Submit and
// ParallelFor re-activate the submitter's trace in their workers, so spans
// opened on pool threads land in the same tree. Each thread nests its spans
// on its own open-span stack; a span opened on a pool thread is a root of
// the forest (kNoParent) unless that thread already has a span open.
// Mutation is mutex-guarded; spans() is a read of live state and is meant
// for after-the-fact decoding, once the query (and any workers it fanned
// out to) has finished.

namespace goalrec::obs {

/// Typed annotation value, stored pre-rendered. `kind` tells the JSON
/// exporter whether to quote.
struct Annotation {
  enum class Kind { kString, kInt, kDouble, kBool };
  std::string key;
  std::string value;
  Kind kind = Kind::kString;
};

/// One timed operation. Offsets are steady-clock nanoseconds since the
/// owning trace's epoch; `end_ns` is -1 while the span is open.
struct TraceSpan {
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  /// Index of the enclosing span in Trace::spans(), or kNoParent for roots.
  size_t parent = kNoParent;
  std::vector<Annotation> annotations;

  int64_t duration_ns() const { return end_ns < 0 ? -1 : end_ns - start_ns; }
};

class Trace {
 public:
  /// `name` labels the root of the span tree (e.g. "serve"). The trace
  /// epoch is captured here; span offsets are relative to it.
  explicit Trace(std::string name = "query");

  /// Opens a span as a child of the calling thread's innermost open span
  /// (or a root when this thread has none). Returns its id. Prefer
  /// ScopedSpan. Thread-safe.
  size_t StartSpan(std::string_view name);

  /// Closes span `id`. A thread's spans must close innermost-first; closing
  /// out of order aborts (it would corrupt the parent stack). Thread-safe.
  void EndSpan(size_t id);

  void Annotate(size_t span_id, std::string_view key, std::string_view value);
  void Annotate(size_t span_id, std::string_view key, const char* value);
  void Annotate(size_t span_id, std::string_view key, int64_t value);
  void Annotate(size_t span_id, std::string_view key, uint64_t value);
  void Annotate(size_t span_id, std::string_view key, int value) {
    Annotate(span_id, key, static_cast<int64_t>(value));
  }
  void Annotate(size_t span_id, std::string_view key, double value);
  void Annotate(size_t span_id, std::string_view key, bool value);

  const std::string& name() const { return name_; }
  /// All spans in start order. Parent indices always point backwards.
  /// Unsynchronized read — call only once writers are done (the exporters
  /// and exemplar rendering run after the query finished).
  const std::vector<TraceSpan>& spans() const { return spans_; }
  /// Nanoseconds since the epoch, for annotations that record "now".
  int64_t ElapsedNs() const;

 private:
  /// The calling thread's open-span stack, created on first use. Caller
  /// holds mu_. Linear scan: a trace sees one submitter plus a few pool
  /// workers.
  std::vector<size_t>& OpenStackLocked();

  std::string name_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mu_;
  std::vector<TraceSpan> spans_;
  /// Per-thread LIFO of open span ids, keyed by thread id.
  std::vector<std::pair<std::thread::id, std::vector<size_t>>> open_stacks_;
};

/// RAII span. Null `trace` makes every operation a no-op, so call sites do
/// not branch on whether the query is sampled:
///   obs::ScopedSpan span(trace, "rung/best_match");
///   span.Annotate("candidates", candidates.size());
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name)
      : trace_(trace), id_(trace == nullptr ? 0 : trace->StartSpan(name)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { End(); }

  /// Closes the span before destruction (idempotent).
  void End() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
    trace_ = nullptr;
  }

  template <typename T>
  void Annotate(std::string_view key, T value) {
    if (trace_ != nullptr) trace_->Annotate(id_, key, value);
  }

  Trace* trace() const { return trace_; }
  size_t id() const { return id_; }

 private:
  Trace* trace_;
  size_t id_;
};

/// The trace attached to the work this thread is currently executing, or
/// nullptr when the query is unsampled (the common case).
Trace* CurrentTrace();

/// Installs `trace` as CurrentTrace() for the enclosing scope, restoring
/// the previous value on destruction. Null is fine (deactivates tracing).
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(Trace* trace);
  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;
  ~ScopedTraceActivation();

 private:
  Trace* previous_;
};

/// Deterministic head sampler: every query calls Sample() and the sampler
/// admits a `rate` fraction, evenly spaced (rate 0.25 -> every 4th call).
/// rate <= 0 never samples; rate >= 1 always samples. Thread-safe; the
/// counter is shared across threads so the global admitted fraction holds.
class TraceSampler {
 public:
  explicit TraceSampler(double rate);

  bool Sample();

  double rate() const { return rate_; }

 private:
  double rate_;
  uint64_t period_;  // 0 = never, 1 = always
  std::atomic<uint64_t> calls_{0};
};

}  // namespace goalrec::obs

#endif  // GOALREC_OBS_TRACE_H_
