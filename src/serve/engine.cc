#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <thread>

#include "obs/exemplar.h"
#include "obs/recorder.h"
#include "obs/slo.h"
#include "serve/snapshot_manager.h"
#include "util/logging.h"

namespace goalrec::serve {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t ToNs(std::chrono::nanoseconds d) {
  return d.count() <= 0 ? 0 : static_cast<uint64_t>(d.count());
}

/// kQueryEnd's rung field when no rung served the query.
constexpr uint16_t kNoServingRung = 0xFFFF;

// Sleeps an injected latency spike, but never meaningfully past the query's
// deadline: overshooting the budget inside the fault plane would make every
// rung below unreachable and the test clock unnecessarily slow.
void SleepInjectedDelay(std::chrono::milliseconds delay,
                        const util::Deadline& deadline) {
  if (delay.count() <= 0) return;
  std::chrono::nanoseconds capped = delay;
  if (!deadline.is_infinite()) {
    capped = std::min(capped,
                      deadline.Remaining() + std::chrono::milliseconds(1));
  }
  if (capped.count() > 0) std::this_thread::sleep_for(capped);
}

}  // namespace

const char* RungOutcomeToString(RungOutcome outcome) {
  switch (outcome) {
    case RungOutcome::kServed:
      return "SERVED";
    case RungOutcome::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case RungOutcome::kError:
      return "ERROR";
    case RungOutcome::kEmpty:
      return "EMPTY";
    case RungOutcome::kBreakerOpen:
      return "BREAKER_OPEN";
  }
  return "UNKNOWN";
}

const char* RungOutcomeLabel(RungOutcome outcome) {
  switch (outcome) {
    case RungOutcome::kServed:
      return "served";
    case RungOutcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case RungOutcome::kError:
      return "error";
    case RungOutcome::kEmpty:
      return "empty";
    case RungOutcome::kBreakerOpen:
      return "breaker_open";
  }
  return "unknown";
}

ServingEngine::ServingEngine(std::vector<Rung> rungs, EngineOptions options)
    : rungs_(std::move(rungs)),
      options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricRegistry::Default()),
      sampler_(options_.trace_sample_rate) {
  GOALREC_CHECK(!rungs_.empty()) << "a serving ladder needs at least one rung";
  for (const Rung& rung : rungs_) GOALREC_CHECK(rung.recommender != nullptr);
  InitInstruments();
}

ServingEngine::ServingEngine(SnapshotManager* snapshots, EngineOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &obs::MetricRegistry::Default()),
      sampler_(options_.trace_sample_rate) {
  GOALREC_CHECK(snapshots != nullptr);
  snapshots_ = snapshots;
  std::shared_ptr<const ServingSnapshot> snapshot = snapshots_->Acquire();
  GOALREC_CHECK(!snapshot->rungs.empty())
      << "a serving ladder needs at least one rung";
  rungs_.reserve(snapshot->rungs.size());
  for (const Rung& rung : snapshot->rungs) {
    // Names define the metric/breaker shape; the live recommenders belong
    // to whichever snapshot each query acquires.
    rungs_.push_back(Rung{rung.name, nullptr});
  }
  InitInstruments();
}

void ServingEngine::InitInstruments() {
  std::vector<double> latency_bounds = obs::DefaultLatencyBucketsUs();
  queries_ = metrics_->GetCounter("goalrec_serve_queries_total", {},
                                  "Serve calls, any outcome");
  degraded_ = metrics_->GetCounter(
      "goalrec_serve_degraded_total", {},
      "Queries answered by a rung below the ladder's best");
  unavailable_ = metrics_->GetCounter(
      "goalrec_serve_unavailable_total", {},
      "Queries where every rung failed (kUnavailable)");
  shed_ = metrics_->GetCounter(
      "goalrec_serve_shed_total", {},
      "Queries rejected by admission control (kResourceExhausted)");
  latency_us_ =
      metrics_->GetHistogram("goalrec_serve_latency_us", latency_bounds, {},
                             "End-to-end Serve latency (microseconds)");
  fault_errors_ =
      metrics_->GetCounter("goalrec_faults_injected_total",
                           {{"kind", "error"}}, "Injected faults, by kind");
  fault_delays_ =
      metrics_->GetCounter("goalrec_faults_injected_total",
                           {{"kind", "delay"}}, "Injected faults, by kind");
  rung_metrics_.reserve(rungs_.size());
  if (options_.breaker.has_value()) breakers_.reserve(rungs_.size());
  for (size_t i = 0; i < rungs_.size(); ++i) {
    const Rung& rung = rungs_[i];
    RungMetrics rm;
    for (size_t o = 0; o < kNumRungOutcomes; ++o) {
      rm.outcome[o] = metrics_->GetCounter(
          "goalrec_serve_rung_attempts_total",
          {{"rung", rung.name},
           {"outcome", RungOutcomeLabel(static_cast<RungOutcome>(o))}},
          "Rung attempts, by rung and outcome");
    }
    rm.latency_us = metrics_->GetHistogram(
        "goalrec_serve_rung_latency_us", latency_bounds, {{"rung", rung.name}},
        "Per-rung attempt latency (microseconds)");
    if (options_.breaker.has_value()) {
      rm.breaker_state = metrics_->GetGauge(
          "goalrec_breaker_state", {{"rung", rung.name}},
          "Circuit breaker state (0 closed, 1 open, 2 half-open)");
      CircuitBreakerOptions breaker_options = *options_.breaker;
      breaker_options.seed += i;  // distinct jitter stream per rung
      breakers_.push_back(std::make_unique<CircuitBreaker>(breaker_options));
    }
    rung_metrics_.push_back(rm);
  }
  last_breaker_state_ = std::vector<std::atomic<int>>(rungs_.size());
  for (std::atomic<int>& state : last_breaker_state_) {
    state.store(-1, std::memory_order_relaxed);
  }
}

util::StatusOr<ServeResult> ServingEngine::Serve(
    const model::Activity& activity, size_t k) const {
  Clock::time_point query_start = Clock::now();
  // Recorder-clock stamp of arrival: the TailSince bound that scopes this
  // query's recorder slice when it turns out to be a tail exemplar.
  int64_t recorder_start_ns = obs::FlightRecorder::NowNs();
  uint64_t query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  recorder.Record(obs::RecorderEventType::kQueryStart, 0,
                  static_cast<uint32_t>(std::min<size_t>(k, UINT32_MAX)),
                  query_id);
  queries_->Increment();
  // The budget starts at arrival: time spent queued for admission is spent
  // from the same deadline the ladder runs under.
  util::Deadline deadline =
      options_.deadline_ms > 0
          ? util::Deadline::AfterMillis(options_.deadline_ms)
          : util::Deadline::Infinite();
  if (options_.admission != nullptr) {
    Clock::time_point admit_start = Clock::now();
    util::Status admitted = options_.admission->Admit(deadline);
    uint64_t wait_ns = ToNs(Clock::now() - admit_start);
    if (!admitted.ok()) {
      shed_->Increment();
      recorder.Record(obs::RecorderEventType::kAdmissionWait, 0,
                      static_cast<uint32_t>(obs::RecorderResult::kShed),
                      wait_ns);
      recorder.Record(obs::RecorderEventType::kQueryEnd, kNoServingRung,
                      static_cast<uint32_t>(obs::RecorderResult::kShed),
                      ToNs(Clock::now() - query_start));
      if (options_.slo != nullptr) options_.slo->Record(false);
      return admitted;
    }
    recorder.Record(obs::RecorderEventType::kAdmissionWait, 0,
                    static_cast<uint32_t>(obs::RecorderResult::kOk), wait_ns);
  }
  // Sampling decision and trace lifetime live out here so RunLadder's early
  // returns cannot leak a trace with open spans into the sink.
  std::shared_ptr<obs::Trace> trace;
  if (sampler_.Sample()) trace = std::make_shared<obs::Trace>("serve");
  Clock::time_point ladder_start = Clock::now();
  util::StatusOr<ServeResult> result = RunLadder(
      activity, k, deadline, query_start, trace, query_id, recorder_start_ns);
  // One SLO event per query that reached the ladder: good means it produced
  // an answer AND the answer landed inside the deadline. (Shed queries were
  // recorded as bad above.)
  if (options_.slo != nullptr) {
    bool met = deadline.is_infinite() || !deadline.Expired();
    options_.slo->Record(result.ok() && met);
  }
  if (options_.admission != nullptr) {
    // The limiter learns from ladder time only: queue wait is the
    // controller's own doing and would double-count in its service
    // estimate (see AdmissionController::Release). Breaker-gated queries
    // skip straight toward the floor, so their latency is withheld from
    // the limiter entirely.
    std::chrono::nanoseconds latency = Clock::now() - ladder_start;
    bool met = result.ok() &&
               (deadline.is_infinite() || !deadline.Expired());
    bool breaker_gated = false;
    if (result.ok()) {
      for (const RungReport& report : result.value().rungs) {
        if (report.outcome == RungOutcome::kBreakerOpen) {
          breaker_gated = true;
          break;
        }
      }
    }
    options_.admission->Release(latency, met, /*limiter_sample=*/!breaker_gated);
  }
  if (trace != nullptr) {
    if (result.ok()) result.value().trace = trace;
    if (options_.trace_sink) options_.trace_sink(*trace);
  }
  return result;
}

util::StatusOr<ServeResult> ServingEngine::RunLadder(
    const model::Activity& activity, size_t k, const util::Deadline& deadline,
    Clock::time_point query_start, const std::shared_ptr<obs::Trace>& trace,
    uint64_t query_id, int64_t recorder_start_ns) const {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Default();
  // Activate the trace for the whole query: the strategies pick it up
  // through obs::CurrentTrace().
  obs::ScopedTraceActivation activation(trace.get());
  obs::ScopedSpan serve_span(trace.get(), "serve");
  serve_span.Annotate("k", k);
  serve_span.Annotate("activity_size", activity.size());
  serve_span.Annotate("deadline_ms", options_.deadline_ms);
  ServeResult result;
  // Snapshot mode: pin the current serving snapshot for this whole query —
  // a concurrent Reload publishes a replacement for *future* queries while
  // this one keeps reading the library it acquired.
  std::shared_ptr<const ServingSnapshot> snapshot;
  std::span<const Rung> active(rungs_);
  if (snapshots_ != nullptr) {
    snapshot = snapshots_->Acquire();
    GOALREC_CHECK_EQ(snapshot->rungs.size(), rung_metrics_.size())
        << "ladder shape changed across a reload";
    active = snapshot->rungs;
    result.library_version = snapshot->library->version;
    serve_span.Annotate("library_version", snapshot->library->version);
  }
  // One workspace per query, leased for the duration of the ladder walk:
  // every rung's scoring runs on its reused buffers.
  core::QueryWorkspacePool::Lease workspace = workspace_pool_.Acquire();
  core::RecommendationList list;
  result.num_rungs = active.size();
  for (size_t i = 0; i < active.size(); ++i) {
    const Rung& rung = active[i];
    const RungMetrics& rm = rung_metrics_[i];
    const bool is_last = i + 1 == active.size();
    CircuitBreaker* breaker = breakers_.empty() ? nullptr : breakers_[i].get();
    Clock::time_point rung_start = Clock::now();
    recorder.Record(obs::RecorderEventType::kRungEnter,
                    static_cast<uint16_t>(i));
    obs::ScopedSpan rung_span(trace.get(), "rung/" + rung.name);
    rung_span.Annotate("index", i);
    if (!deadline.is_infinite()) {
      rung_span.Annotate("deadline_slack_us",
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             deadline.Remaining())
                             .count());
    }
    RungReport report;
    report.name = rung.name;
    // Records the rung's outcome everywhere it is visible: the audit report,
    // the per-rung counters/latency histogram, and the rung span.
    auto finish_rung = [&](RungOutcome outcome) {
      report.outcome = outcome;
      rm.outcome[static_cast<size_t>(outcome)]->Increment();
      rm.latency_us->Observe(
          static_cast<double>(report.latency.count()) / 1e3);
      recorder.Record(obs::RecorderEventType::kRungExit,
                      static_cast<uint16_t>(i),
                      static_cast<uint32_t>(outcome),
                      ToNs(report.latency));
      rung_span.Annotate("outcome", RungOutcomeLabel(outcome));
      result.rungs.push_back(std::move(report));
    };
    // Refreshes the breaker state gauge and, when the state changed since
    // this rung's last query, leaves a kBreakerTransition in the recorder —
    // the flight-recorder timeline shows *when* a rung tripped or healed.
    auto publish_breaker_state = [&] {
      int state = static_cast<int>(breaker->state());
      rm.breaker_state->Set(state);
      int last = last_breaker_state_[i].exchange(state,
                                                 std::memory_order_relaxed);
      if (last != state) {
        recorder.Record(obs::RecorderEventType::kBreakerTransition,
                        static_cast<uint16_t>(i),
                        static_cast<uint32_t>(state));
      }
    };
    // Feeds the rung's outcome to its breaker and refreshes the state
    // gauge. Empty answers count as healthy: the rung responded promptly,
    // it just had nothing to say.
    auto record_breaker = [&](RungOutcome outcome) {
      if (breaker == nullptr) return;
      switch (outcome) {
        case RungOutcome::kServed:
        case RungOutcome::kEmpty:
          breaker->RecordSuccess();
          break;
        case RungOutcome::kDeadlineExceeded:
        case RungOutcome::kError:
          breaker->RecordFailure();
          break;
        case RungOutcome::kBreakerOpen:
          break;
      }
      publish_breaker_state();
    };

    // Breaker check first: skipping an unhealthy rung must cost
    // microseconds, not a fault-plane sleep or a doomed attempt. The final
    // rung is never gated — the floor always runs.
    if (!is_last && breaker != nullptr && !breaker->Allow()) {
      report.latency = Clock::now() - rung_start;
      publish_breaker_state();
      finish_rung(RungOutcome::kBreakerOpen);
      continue;
    }
    if (options_.faults != nullptr) {
      util::Status injected = options_.faults->MaybeFail("rung/" + rung.name);
      if (!injected.ok()) {
        fault_errors_->Increment();
        rung_span.Annotate("injected_fault", "error");
        rung_span.Annotate("status", injected.ToString());
        report.status = injected;
        report.latency = Clock::now() - rung_start;
        finish_rung(RungOutcome::kError);
        record_breaker(RungOutcome::kError);
        continue;
      }
      std::chrono::milliseconds delay =
          options_.faults->MaybeDelay("rung/" + rung.name);
      if (delay.count() > 0) {
        fault_delays_->Increment();
        rung_span.Annotate("injected_fault", "delay");
        rung_span.Annotate("injected_delay_ms", delay.count());
      }
      SleepInjectedDelay(delay, deadline);
    }
    if (!is_last && deadline.Expired()) {
      report.latency = Clock::now() - rung_start;
      finish_rung(RungOutcome::kDeadlineExceeded);
      record_breaker(RungOutcome::kDeadlineExceeded);
      continue;
    }

    // The final rung runs unbounded (see header); others under the budget.
    util::StopToken stop =
        is_last ? util::StopToken() : util::StopToken(deadline);
    // Fresh kernel stats per attempt: RecommendPooled's strategy accumulates
    // into them and a tail exemplar snapshots them for the serving rung.
    workspace->kernel_stats = {};
    rung.recommender->RecommendPooled(activity, k, &stop, workspace.get(),
                                      list);
    report.latency = Clock::now() - rung_start;

    if (!is_last && stop.StopRequested()) {
      // The budget fired mid-rung: the list is a partial answer; discard it
      // and degrade.
      finish_rung(RungOutcome::kDeadlineExceeded);
      record_breaker(RungOutcome::kDeadlineExceeded);
      continue;
    }
    if (list.empty() && !is_last) {
      finish_rung(RungOutcome::kEmpty);
      record_breaker(RungOutcome::kEmpty);
      continue;
    }

    finish_rung(RungOutcome::kServed);
    record_breaker(RungOutcome::kServed);
    result.list = std::move(list);
    result.rung_index = i;
    result.rung_name = rung.name;
    result.degraded = i > 0;
    result.latency = Clock::now() - query_start;
    if (result.degraded) degraded_->Increment();
    double latency_total_us =
        static_cast<double>(result.latency.count()) / 1e3;
    latency_us_->Observe(latency_total_us);
    recorder.Record(obs::RecorderEventType::kQueryEnd,
                    static_cast<uint16_t>(i),
                    static_cast<uint32_t>(obs::RecorderResult::kOk),
                    ToNs(result.latency));
    // Tail exemplar capture. Steady-state cost is the one relaxed floor
    // load in WorthCapturing; only queries slower than the reservoir's
    // current floor pay for the trace/recorder-slice copy below.
    if (options_.exemplars != nullptr &&
        options_.exemplars->WorthCapturing(latency_total_us)) {
      obs::TailExemplar exemplar;
      exemplar.key = rung.name;
      exemplar.id = query_id;
      exemplar.latency_us = latency_total_us;
      exemplar.snapshot_version = result.library_version;
      exemplar.captured_ts_ns = obs::FlightRecorder::NowNs();
      exemplar.stats.h_size =
          static_cast<uint32_t>(workspace->activity.size());
      exemplar.stats.touched_impls =
          static_cast<uint32_t>(workspace->touched_impls().size());
      exemplar.stats.touched_slots = workspace->kernel_stats.slots_touched;
      exemplar.stats.dense_fallbacks =
          workspace->kernel_stats.dense_fallbacks;
      exemplar.trace = trace;  // co-owns the span tree past the query
      exemplar.events = recorder.TailSince(recorder_start_ns);
      if (options_.exemplars->Offer(std::move(exemplar))) {
        latency_us_->AttachExemplar(latency_total_us, query_id);
        rm.latency_us->AttachExemplar(
            static_cast<double>(result.rungs.back().latency.count()) / 1e3,
            query_id);
      }
    }
    serve_span.Annotate("outcome", "served");
    serve_span.Annotate("rung", rung.name);
    serve_span.Annotate("rung_index", i);
    serve_span.Annotate("degraded", result.degraded);
    return result;
  }
  // Only reachable when the final rung itself failed (injected fault).
  unavailable_->Increment();
  latency_us_->Observe(
      static_cast<double>((Clock::now() - query_start).count()) / 1e3);
  recorder.Record(obs::RecorderEventType::kQueryEnd, kNoServingRung,
                  static_cast<uint32_t>(obs::RecorderResult::kUnavailable),
                  ToNs(Clock::now() - query_start));
  serve_span.Annotate("outcome", "unavailable");
  std::string detail;
  for (const RungReport& report : result.rungs) {
    if (!detail.empty()) detail += "; ";
    detail += report.name + ": " + RungOutcomeToString(report.outcome);
  }
  GOALREC_LOG(WARN) << "all serving rungs failed"
                    << util::Kv("rungs", rungs_.size())
                    << util::Kv("detail", detail);
  return util::UnavailableError("all " + std::to_string(rungs_.size()) +
                                " rungs failed (" + detail + ")");
}

std::string FormatServeReport(const ServeResult& result) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "served by rung %zu/%zu '%s'%s in %.2f ms",
                result.rung_index + 1, result.num_rungs,
                result.rung_name.c_str(),
                result.degraded ? " (degraded)" : "",
                static_cast<double>(result.latency.count()) / 1e6);
  std::string out = buffer;
  for (const RungReport& report : result.rungs) {
    if (report.outcome == RungOutcome::kServed) continue;
    out += "; " + report.name + ": " + RungOutcomeToString(report.outcome);
    if (!report.status.ok()) out += " (" + report.status.ToString() + ")";
  }
  return out;
}

}  // namespace goalrec::serve
