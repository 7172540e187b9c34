#ifndef GOALREC_SERVE_STATUSZ_H_
#define GOALREC_SERVE_STATUSZ_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "model/delta_log.h"
#include "obs/recorder.h"

// The serving process's introspection page. Where the metric exporters
// answer "what are the rates", statusz answers "what is this process doing
// *right now* and what did its worst recent queries look like": snapshot
// version and age, admission limiter state, per-rung breaker states, SLO
// burn rates, the tail exemplar reservoir (span trees plus decoded recorder
// slices), and the newest flight-recorder events across all threads.
//
// Everything here reads live operational state through the same accessors
// tests use — no locks are held across sections, so a render racing live
// traffic sees each section individually consistent, not a global snapshot.
// Rendering is pull-only and costs nothing between renders.
//
// Surfaces: the `statusz` REPL command of `goalrec serve`, and the
// --statusz_out periodic dump (obs::PeriodicDumper with a producer), both in
// src/tools/goalrec_cli.cc. docs/observability.md walks through the output.

namespace goalrec::obs {
class ExemplarReservoir;
class MetricRegistry;
class SloTracker;
}  // namespace goalrec::obs

namespace goalrec::serve {

class AdmissionController;
class ServingEngine;
class SnapshotManager;

/// What RenderStatusz reads. Every pointer is optional (its section is
/// omitted when null) and borrowed — nothing is owned.
struct StatuszSources {
  /// Ladder shape and per-rung breakers.
  const ServingEngine* engine = nullptr;
  /// Library version / age / reload history. When the serving snapshot
  /// carries a shard partition (serve/sharded.h), also feeds the [shards]
  /// section: shard count and per-shard implementation counts.
  const SnapshotManager* snapshots = nullptr;
  /// Registry holding goalrec_shard_merge_latency_us; the [shards] section
  /// reports the merge p99 (bucket-interpolated) from it. Null omits the
  /// p99 line only — shard rows render from `snapshots` alone.
  const obs::MetricRegistry* metrics = nullptr;
  /// Delta-log mutation state for the [library] section: segment backlog,
  /// tombstones, compaction history. A provider rather than a borrowed
  /// pointer because model::DeltaLog is not thread-safe — the owner of the
  /// writer/poll loop supplies a callback that snapshots the stats under
  /// its own synchronisation. Null (or a nullopt return) omits the lines.
  std::function<std::optional<model::DeltaLogStats>()> delta_stats;
  /// Limiter and queue state.
  const AdmissionController* admission = nullptr;
  /// Burn-rate windows. Non-const: rendering refreshes the goalrec_slo_*
  /// gauges so a scrape racing a quiet period sees current windows.
  obs::SloTracker* slo = nullptr;
  /// Retained slow queries.
  const obs::ExemplarReservoir* exemplars = nullptr;
  /// Recorder for the recent-events tail; null means
  /// obs::FlightRecorder::Default().
  const obs::FlightRecorder* recorder = nullptr;
  /// Newest merged recorder events rendered in the tail section; 0 omits
  /// the section.
  size_t recent_events = 32;
};

/// Renders the full human-readable status page.
std::string RenderStatusz(const StatuszSources& sources);

/// Serve-aware decode of recorder events, one line per event, oldest first,
/// timestamps relative to the first event:
///   +0.000ms query_start id=000000000000002a priority=interactive k=5
///   +1.204ms rung_exit rung=best_match outcome=deadline_exceeded latency=1.20ms
/// `rung_names` maps rung indices to names (from the engine's ladder); out
/// of range indices print numerically, so a names-less decode still works.
std::string FormatServeEvents(const std::vector<obs::RecorderEvent>& events,
                              const std::vector<std::string>& rung_names);

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_STATUSZ_H_
