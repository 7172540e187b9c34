#ifndef GOALREC_OBS_EXPORT_H_
#define GOALREC_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

// Snapshot serialisation. Two metric formats:
//
//   Prometheus text (ExportPrometheus) — the scrape format: # HELP/# TYPE
//   headers, one `name{labels} value` line per instrument, histograms as
//   cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
//
//   JSON (ExportJson) — one self-contained document for log pipelines
//   (the CLI's --metrics_format=json).
//
// Traces export as JSON (span tree with offsets/durations in ns) or as an
// indented human-readable tree (FormatTrace) for CLI output. All output is
// deterministic given the snapshot: metrics sorted by name then labels,
// spans in start order — golden tests rely on this.

namespace goalrec::obs {

std::string ExportPrometheus(const RegistrySnapshot& snapshot);
std::string ExportPrometheus(const MetricRegistry& registry);

std::string ExportJson(const RegistrySnapshot& snapshot);
std::string ExportJson(const MetricRegistry& registry);

std::string TraceToJson(const Trace& trace);

/// Indented tree, one line per span:
///   serve  4.21ms
///     rung/best_match  4.02ms  outcome=SERVED candidates=117
std::string FormatTrace(const Trace& trace);

/// Writes `contents` to `path` ("-" means stdout). Creates or truncates.
/// Returns false (with a GOALREC_LOG(ERROR)) when the write fails.
bool WriteSnapshotFile(const std::string& path, const std::string& contents);

}  // namespace goalrec::obs

#endif  // GOALREC_OBS_EXPORT_H_
