#ifndef GOALREC_SERVE_ENGINE_H_
#define GOALREC_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/query_workspace.h"
#include "core/recommender.h"
#include "model/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/fault_injection.h"
#include "util/deadline.h"
#include "util/status.h"

// Resilient query serving. A ServingEngine wraps an ordered ladder of
// recommenders — typically expensive-and-good down to cheap-and-coarse, e.g.
// BestMatch → Breadth → LibraryPopularity — and enforces a per-query
// deadline cooperatively (util::StopToken polled inside the strategies'
// scoring loops). When a rung times out, errors, or answers empty, the query
// falls to the next rung instead of failing; the result reports which rung
// served it and why the better ones did not. This mirrors how production
// recommenders degrade to cheaper models under pressure (cf. the hybrid
// goal/CF ranking of arXiv 2011.06237) rather than erroring.
//
// Deadline semantics: one budget covers the whole query, including any time
// spent queued for admission. Non-final rungs run under it and are abandoned
// the moment it expires; the FINAL rung always runs unbounded, because a
// floor that can also time out would turn overload into outages — so make it
// structurally cheap (LibraryPopularity is).
//
// Overload protection (optional, see serve/admission.h and
// serve/circuit_breaker.h): an AdmissionController in front of the ladder
// sheds excess traffic with kResourceExhausted before it can burn a
// deadline, and a per-rung CircuitBreaker skips a rung that keeps failing
// (outcome kBreakerOpen) instead of re-discovering the failure on every
// query. The degradation ladder degrades every answer a little; admission
// control keeps admitted answers good and fails the rest fast.

namespace goalrec::obs {
class ExemplarReservoir;
class SloTracker;
}  // namespace goalrec::obs

namespace goalrec::serve {

class SnapshotManager;

/// Why a rung did not (or did) produce the answer.
enum class RungOutcome {
  kServed,            // this rung's answer was returned
  kDeadlineExceeded,  // budget expired before or while the rung ran
  kError,             // the rung failed (today: injected faults)
  kEmpty,             // ran to completion but had nothing to recommend
  kBreakerOpen,       // skipped: the rung's circuit breaker refused it
};

/// Number of RungOutcome values (metric array bound).
inline constexpr size_t kNumRungOutcomes = 5;

const char* RungOutcomeToString(RungOutcome outcome);

/// Lowercase form used as the `outcome` metric label (e.g.
/// "deadline_exceeded"); RungOutcomeToString is the loud report form.
const char* RungOutcomeLabel(RungOutcome outcome);

/// Per-rung audit record of one Serve call.
struct RungReport {
  std::string name;
  RungOutcome outcome = RungOutcome::kError;
  util::Status status;  // non-OK for kError
  std::chrono::nanoseconds latency{0};
};

struct EngineOptions {
  /// Per-query budget in milliseconds; 0 means unbounded.
  int64_t deadline_ms = 0;
  /// Optional fault plane consulted before each rung (not owned; may be
  /// null). Injected delays are slept (capped at the remaining budget plus
  /// one millisecond) and injected errors fail the rung.
  FaultInjector* faults = nullptr;
  /// Optional admission controller consulted before the ladder runs (not
  /// owned; may be null; may be shared between engines so they compete for
  /// one concurrency budget). Shed queries return kResourceExhausted
  /// without touching a rung; queue wait is spent from the query deadline.
  AdmissionController* admission = nullptr;
  /// When set, every rung gets a CircuitBreaker built from these options
  /// (rung index added to the seed so jitter streams differ). An open
  /// breaker skips its rung at admission time — except the final rung,
  /// which is never gated: the floor must always run.
  std::optional<CircuitBreakerOptions> breaker;
  /// Registry the engine's counters/histograms report into. Null means
  /// obs::MetricRegistry::Default(); tests pass their own to scrape in
  /// isolation. Not owned; must outlive the engine.
  obs::MetricRegistry* metrics = nullptr;
  /// Fraction of queries that record a full obs::Trace (deterministic head
  /// sampling; 0 disables tracing, 1 traces everything). Sampled traces are
  /// attached to the ServeResult and handed to `trace_sink`.
  double trace_sample_rate = 0.0;
  /// Invoked with every sampled trace after the query finishes (all spans
  /// closed), on the serving thread. May be empty.
  std::function<void(const obs::Trace&)> trace_sink;
  /// Tail exemplar reservoir (obs/exemplar.h). When set, every served query
  /// pays one relaxed load (WorthCapturing); the K slowest per rung
  /// additionally get their trace, recorder slice and workspace stats
  /// captured, and their query id attached to the latency histograms as an
  /// OpenMetrics exemplar. Not owned; may be null.
  obs::ExemplarReservoir* exemplars = nullptr;
  /// SLO tracker fed one good/bad event per finished query: good = the
  /// query succeeded AND met its deadline. Not owned; may be null.
  obs::SloTracker* slo = nullptr;
};

struct ServeResult {
  core::RecommendationList list;
  /// Index/name of the rung that answered.
  size_t rung_index = 0;
  std::string rung_name;
  /// True when any rung above the serving one was skipped, failed, timed
  /// out, or answered empty — i.e. the answer is not the ladder's best.
  bool degraded = false;
  /// One entry per rung attempted, in ladder order.
  std::vector<RungReport> rungs;
  /// Total rungs in the ladder (>= rungs.size()).
  size_t num_rungs = 0;
  /// End-to-end latency of the Serve call.
  std::chrono::nanoseconds latency{0};
  /// Version of the library snapshot that answered (0 when the engine was
  /// built from a static rung list rather than a SnapshotManager).
  uint64_t library_version = 0;
  /// The query's trace when it was sampled (EngineOptions::trace_sample_rate),
  /// null otherwise. Shared so callers can keep it past the result.
  std::shared_ptr<obs::Trace> trace;
};

class ServingEngine {
 public:
  struct Rung {
    std::string name;
    /// Not owned; must outlive the engine.
    const core::Recommender* recommender = nullptr;
  };

  /// Requires at least one rung. Rungs are tried in order; see the file
  /// comment for the deadline contract on the final rung.
  ServingEngine(std::vector<Rung> rungs, EngineOptions options = {});

  /// Snapshot mode: every query acquires the manager's current serving
  /// snapshot (one lock-free load) and runs that snapshot's ladder, so
  /// SnapshotManager::Reload takes effect between queries with no engine
  /// restart. The ladder *shape* is fixed at construction — per-rung metrics
  /// and circuit breakers are resolved from the initial snapshot's rung
  /// names and persist (positionally) across reloads. `snapshots` is not
  /// owned and must outlive the engine.
  ServingEngine(SnapshotManager* snapshots, EngineOptions options = {});

  /// Serves one query. Returns an error only when the query was shed by
  /// admission control (kResourceExhausted) or every rung failed
  /// (kUnavailable); a deadline alone never produces an error, it produces
  /// a degraded answer. One call: admission (exactly once per query), trace
  /// sampling, the ladder walk, slot release.
  util::StatusOr<ServeResult> Serve(const model::Activity& activity,
                                    size_t k) const;

  size_t num_rungs() const { return rungs_.size(); }
  /// The ladder shape. In snapshot mode the `recommender` pointers are null
  /// (the live ones belong to the current snapshot); the names are stable.
  const std::vector<Rung>& rungs() const { return rungs_; }
  const EngineOptions& options() const { return options_; }

  /// Workspaces minted by the query path so far (high-water concurrency).
  size_t workspaces_created() const { return workspace_pool_.created(); }

  /// The rung's circuit breaker, or null when EngineOptions::breaker is
  /// unset. Exposed for tests and operational introspection.
  const CircuitBreaker* breaker(size_t rung_index) const {
    return breakers_.empty() ? nullptr : breakers_[rung_index].get();
  }

 private:
  /// Instrument handles resolved once at construction: the per-query path
  /// touches only relaxed atomics, never the registry mutex.
  struct RungMetrics {
    /// Indexed by static_cast<size_t>(RungOutcome).
    obs::Counter* outcome[kNumRungOutcomes] = {};
    obs::Histogram* latency_us = nullptr;
    /// CircuitBreaker::State as an integer; null when breakers are off.
    obs::Gauge* breaker_state = nullptr;
  };

  /// `trace` is shared (not raw) so a captured tail exemplar can co-own the
  /// span tree past the query; `query_id` labels the query's recorder events
  /// and exemplar, `recorder_start_ns` bounds the TailSince slice.
  util::StatusOr<ServeResult> RunLadder(const model::Activity& activity,
                                        size_t k,
                                        const util::Deadline& deadline,
                                        std::chrono::steady_clock::time_point
                                            query_start,
                                        const std::shared_ptr<obs::Trace>&
                                            trace,
                                        uint64_t query_id,
                                        int64_t recorder_start_ns) const;

  /// Resolves the per-rung instrument handles and breakers from rungs_'
  /// names (shared by both constructors).
  void InitInstruments();

  std::vector<Rung> rungs_;
  /// Snapshot mode source of live rungs; null in static-ladder mode.
  SnapshotManager* snapshots_ = nullptr;
  /// Per-query scratch memory: leased in RunLadder, returned when the query
  /// finishes, buffers reused across queries (the zero-allocation path).
  mutable core::QueryWorkspacePool workspace_pool_;
  EngineOptions options_;
  obs::MetricRegistry* metrics_ = nullptr;
  std::vector<RungMetrics> rung_metrics_;
  /// One breaker per rung when options_.breaker is set; empty otherwise.
  /// Mutable: breakers accumulate health state across const Serve calls.
  mutable std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  obs::Counter* queries_ = nullptr;
  obs::Counter* degraded_ = nullptr;
  obs::Counter* unavailable_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Histogram* latency_us_ = nullptr;
  obs::Counter* fault_errors_ = nullptr;
  obs::Counter* fault_delays_ = nullptr;
  mutable obs::TraceSampler sampler_;
  /// Process-unique-per-engine query ids: recorder event / exemplar /
  /// histogram-exemplar correlation key (the "trace_id" in OpenMetrics
  /// exports).
  mutable std::atomic<uint64_t> next_query_id_{0};
  /// Last CircuitBreaker::State observed per rung; a change emits one
  /// kBreakerTransition recorder event. -1 until first observed.
  mutable std::vector<std::atomic<int>> last_breaker_state_;
};

/// Renders a ServeResult's audit trail for CLI/log output, e.g.
/// "served by rung 2/3 'breadth' (degraded) in 4.1 ms; best_match: DEADLINE_EXCEEDED".
std::string FormatServeReport(const ServeResult& result);

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_ENGINE_H_
