#ifndef GOALREC_OBS_RECORDER_H_
#define GOALREC_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"  // kObsEnabled

// Always-on flight recorder for tail-latency forensics. Sampled traces
// (obs/trace.h) systematically miss the rare pathological query: by the time
// a query lands in the worst latency bucket the decision not to trace it was
// made long ago. The recorder instead keeps a per-thread lock-free ring of
// compact fixed-size binary events — query start/end, rung enter/exit,
// kernel stage stamps, admission waits, breaker transitions, snapshot swaps
// — overwriting oldest-first, so the *last few thousand events of every
// serving thread are always available* for after-the-fact decoding.
//
// Cost model. Recording one event is a runtime-enabled check (one relaxed
// load + branch), one monotonic-clock read, three relaxed atomic stores into
// the thread's own ring slot and one relaxed head bump — no locks, no
// allocation after the thread's first event, no cross-core traffic (each
// thread writes only its own cache lines). Building with -DGOALREC_OBS_NOOP
// compiles every Record call out entirely, which is what keeps the scoring
// kernels branch-lean; bench/micro_recorder gates the enabled-vs-disabled
// delta at <= 3% on the BestMatch hot path.
//
// Read side. TailSince() decodes the *calling thread's* ring — single
// writer, so the slice is exact; the serving engine uses it to attach a
// per-query recorder slice to tail exemplars. Snapshot() merges every
// thread's ring for the statusz recent-events tail: each 24-byte slot is
// stored as three word-atomics, so a concurrent overwrite can pair words of
// two different events; Snapshot defends by re-reading the head after the
// copy and dropping any slot the writer may have lapped, leaving only
// consistent events (the view is approximate under write pressure, which is
// the standard contract for a flight recorder).

namespace goalrec::obs {

enum class RecorderEventType : uint16_t {
  kNone = 0,
  kQueryStart = 1,        // b=k, c=query id
  kQueryEnd = 2,          // a=serving rung (0xFFFF none), b=result, c=latency ns
  kRungEnter = 3,         // a=rung index
  kRungExit = 4,          // a=rung index, b=RungOutcome, c=rung latency ns
  kStageStamp = 5,        // a=KernelStage, b=items processed by the stage
  kAdmissionWait = 6,     // b=admission result, c=queue wait ns
  kBreakerTransition = 7, // a=rung index, b=new CircuitBreaker::State
  kSnapshotSwap = 8,      // c=published library version
};

/// Scoring-kernel phases stamped from src/core (see docs/observability.md).
enum class KernelStage : uint16_t { kScatter = 0, kRank = 1, kEmit = 2 };

/// Result code for kQueryEnd / kAdmissionWait events.
enum class RecorderResult : uint32_t {
  kOk = 0,
  kShed = 1,
  kUnavailable = 2,
};

const char* RecorderEventTypeToString(RecorderEventType type);
const char* KernelStageToString(KernelStage stage);

/// One decoded event. `ts_ns` is the recorder's monotonic clock
/// (FlightRecorder::NowNs); `seq` is the global write index within its ring.
struct RecorderEvent {
  int64_t ts_ns = 0;
  uint64_t seq = 0;
  RecorderEventType type = RecorderEventType::kNone;
  uint16_t a = 0;
  uint32_t b = 0;
  uint64_t c = 0;
};

class FlightRecorder {
 public:
  /// `capacity` slots per thread ring, rounded up to a power of two.
  explicit FlightRecorder(size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  /// Appends one event to the calling thread's ring. See the file comment
  /// for the cost model. No-op when disabled (runtime) or under
  /// GOALREC_OBS_NOOP (compile time).
  void Record(RecorderEventType type, uint16_t a = 0, uint32_t b = 0,
              uint64_t c = 0) {
    if constexpr (!kObsEnabled) return;
    if (!enabled_.load(std::memory_order_relaxed)) return;
    RecordSlow(type, a, b, c);
  }

  /// The calling thread's own events with ts_ns >= `since_ts_ns`, oldest
  /// first. Exact (single-writer ring). Empty when the thread has not
  /// recorded yet.
  std::vector<RecorderEvent> TailSince(int64_t since_ts_ns) const;

  /// The newest <= `max_events` events merged across every thread's ring,
  /// sorted by (ts_ns, seq). Approximate under concurrent writes (see file
  /// comment); torn slots are dropped, never decoded.
  std::vector<RecorderEvent> Snapshot(size_t max_events = 256) const;

  /// Runtime kill switch; flipping it does not clear the rings. The
  /// overhead bench compares enabled vs disabled with this.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Total events ever recorded, across all threads (monotonic).
  uint64_t events_recorded() const;

  /// Threads that have recorded at least one event.
  size_t threads_seen() const;

  /// The recorder's clock: CLOCK_MONOTONIC nanoseconds, fine enough to
  /// order and time the events of one query (a vDSO read, no system call,
  /// on a TSC clocksource). Comparable across threads within a process.
  static int64_t NowNs();

  /// The process-wide recorder every built-in instrumentation site (serving
  /// engine, snapshot manager, scoring kernels) writes into.
  static FlightRecorder& Default();

  static constexpr size_t kDefaultCapacity = 4096;

  /// One thread's ring; defined in recorder.cc (public so the thread-local
  /// ring cache there can name it).
  struct Ring;

 private:
  void RecordSlow(RecorderEventType type, uint16_t a, uint32_t b, uint64_t c);
  Ring* LocalRing();

  std::atomic<bool> enabled_{true};
  /// Process-unique id, the thread-local ring-cache key (never reused, so a
  /// recorder allocated where a destroyed one lived cannot inherit rings).
  uint64_t id_;
  size_t capacity_;  // power of two
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// Human-readable decode, one line per event, oldest first:
///   +12.345ms rung_exit rung=0 outcome=1 latency_ns=38991021
/// Timestamps are relative to the first event in `events`. Generic field
/// names; serve/statusz.h renders the serve-aware form (outcome labels,
/// rung names).
std::string FormatRecorderEvents(const std::vector<RecorderEvent>& events);

}  // namespace goalrec::obs

#endif  // GOALREC_OBS_RECORDER_H_
