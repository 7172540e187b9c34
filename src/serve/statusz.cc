#include "serve/statusz.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "model/sharding.h"
#include "obs/exemplar.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/engine.h"
#include "serve/snapshot_manager.h"

namespace goalrec::serve {
namespace {

const char* RecorderResultLabel(uint32_t result) {
  switch (static_cast<obs::RecorderResult>(result)) {
    case obs::RecorderResult::kOk:
      return "ok";
    case obs::RecorderResult::kShed:
      return "shed";
    case obs::RecorderResult::kCancelled:
      return "cancelled";
    case obs::RecorderResult::kUnavailable:
      return "unavailable";
  }
  return "?";
}

const char* OutcomeLabelOr(uint32_t outcome) {
  return outcome < kNumRungOutcomes
             ? RungOutcomeLabel(static_cast<RungOutcome>(outcome))
             : "?";
}

/// Rung index as a name when the ladder knows it, numeric otherwise.
/// 0xFFFF is kQueryEnd's "no rung served" marker.
std::string RungLabel(uint16_t index,
                      const std::vector<std::string>& rung_names) {
  if (index == 0xFFFF) return "-";
  if (index < rung_names.size()) return rung_names[index];
  return std::to_string(index);
}

void AppendMs(std::string& out, const char* field, uint64_t ns) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %s=%.2fms", field,
                static_cast<double>(ns) / 1e6);
  out += buffer;
}

/// Bucket-interpolated quantile of a histogram snapshot (the standard
/// Prometheus histogram_quantile estimate): walks the cumulative counts to
/// the target rank and interpolates linearly within the containing bucket.
/// Observations in the +Inf bucket report the last finite bound (the
/// estimate cannot exceed the instrumented range). Returns 0 when empty.
double HistogramQuantile(const obs::HistogramSnapshot& histogram, double q) {
  if (histogram.count <= 0 || histogram.bounds.empty()) return 0.0;
  const double rank = q * static_cast<double>(histogram.count);
  int64_t cumulative = 0;
  for (size_t i = 0; i < histogram.counts.size(); ++i) {
    cumulative += histogram.counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= histogram.bounds.size()) return histogram.bounds.back();
    const double upper = histogram.bounds[i];
    const double lower = i == 0 ? 0.0 : histogram.bounds[i - 1];
    const int64_t in_bucket = histogram.counts[i];
    if (in_bucket <= 0) return upper;
    const double into =
        rank - static_cast<double>(cumulative - in_bucket);
    return lower + (upper - lower) * into / static_cast<double>(in_bucket);
  }
  return histogram.bounds.back();
}

/// Prefixes every line of `text` with `indent`.
std::string Indent(const std::string& text, const char* indent) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    out += indent;
    out.append(text, pos, eol - pos);
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

}  // namespace

std::string FormatServeEvents(const std::vector<obs::RecorderEvent>& events,
                              const std::vector<std::string>& rung_names) {
  std::string out;
  if (events.empty()) return out;
  const int64_t base_ts = events.front().ts_ns;
  char buffer[96];
  for (const obs::RecorderEvent& event : events) {
    std::snprintf(buffer, sizeof(buffer), "+%.3fms ",
                  static_cast<double>(event.ts_ns - base_ts) / 1e6);
    out += buffer;
    out += obs::RecorderEventTypeToString(event.type);
    switch (event.type) {
      case obs::RecorderEventType::kQueryStart:
        std::snprintf(buffer, sizeof(buffer),
                      " id=%016" PRIx64 " priority=%s k=%u", event.c,
                      QueryPriorityLabel(static_cast<QueryPriority>(event.a)),
                      event.b);
        out += buffer;
        break;
      case obs::RecorderEventType::kQueryEnd:
        out += " rung=" + RungLabel(event.a, rung_names);
        out += " result=";
        out += RecorderResultLabel(event.b);
        AppendMs(out, "latency", event.c);
        break;
      case obs::RecorderEventType::kRungEnter:
        out += " rung=" + RungLabel(event.a, rung_names);
        break;
      case obs::RecorderEventType::kRungExit:
        out += " rung=" + RungLabel(event.a, rung_names);
        out += " outcome=";
        out += OutcomeLabelOr(event.b);
        AppendMs(out, "latency", event.c);
        break;
      case obs::RecorderEventType::kStageStamp:
        out += " stage=";
        out += obs::KernelStageToString(
            static_cast<obs::KernelStage>(event.a));
        std::snprintf(buffer, sizeof(buffer), " items=%u", event.b);
        out += buffer;
        break;
      case obs::RecorderEventType::kAdmissionWait:
        out += " result=";
        out += RecorderResultLabel(event.b);
        AppendMs(out, "wait", event.c);
        break;
      case obs::RecorderEventType::kBreakerTransition:
        out += " rung=" + RungLabel(event.a, rung_names);
        out += " state=";
        out += CircuitBreakerStateToString(
            static_cast<CircuitBreaker::State>(event.b));
        break;
      case obs::RecorderEventType::kSnapshotSwap:
        std::snprintf(buffer, sizeof(buffer), " version=%" PRIu64, event.c);
        out += buffer;
        break;
      case obs::RecorderEventType::kNone:
        break;
    }
    out += '\n';
  }
  return out;
}

std::string RenderStatusz(const StatuszSources& sources) {
  std::ostringstream out;
  char buffer[128];
  out << "=== goalrec statusz ===\n";

  std::vector<std::string> rung_names;
  if (sources.engine != nullptr) {
    for (const ServingEngine::Rung& rung : sources.engine->rungs()) {
      rung_names.push_back(rung.name);
    }
  }

  if (sources.snapshots != nullptr) {
    const SnapshotManager& snapshots = *sources.snapshots;
    snapshots.RefreshAgeGauge();
    out << "\n[library]\n";
    out << "  version: " << snapshots.current_version() << "\n";
    std::snprintf(buffer, sizeof(buffer), "  age: %.1fs\n",
                  snapshots.snapshot_age_seconds());
    out << buffer;
    out << "  reloads: " << snapshots.reload_count()
        << " (consecutive failures: " << snapshots.consecutive_failures()
        << ")\n";
  }

  if (sources.delta_stats) {
    if (std::optional<model::DeltaLogStats> delta = sources.delta_stats();
        delta.has_value()) {
      if (sources.snapshots == nullptr) out << "\n[library]\n";
      out << "  delta_segments: " << delta->segments_active
          << " (pending compaction backlog)\n";
      out << "  delta_tombstones: impls="
          << delta->view.tombstoned_implementations
          << " goals=" << delta->view.tombstoned_goals
          << " appended=" << delta->view.appended_implementations << "\n";
      std::snprintf(buffer, sizeof(buffer),
                    "  compactions: %" PRIu64 " (last %.1fms)\n",
                    delta->compactions,
                    static_cast<double>(delta->last_compaction_micros) / 1e3);
      out << buffer;
      if (delta->quarantined_segments > 0) {
        out << "  quarantined_segments: " << delta->quarantined_segments
            << "\n";
      }
    }
  }

  if (sources.snapshots != nullptr) {
    std::shared_ptr<const ServingSnapshot> serving =
        sources.snapshots->Acquire();
    if (serving->sharded != nullptr) {
      const model::ShardedSnapshot& sharded = *serving->sharded;
      out << "\n[shards] " << sharded.num_shards << "\n";
      for (uint32_t s = 0; s < sharded.num_shards; ++s) {
        out << "  shard " << s << ": impls="
            << sharded.shard_library(s).num_implementations() << "\n";
      }
      if (sources.metrics != nullptr) {
        obs::RegistrySnapshot scrape = sources.metrics->Snapshot();
        if (const obs::MetricSnapshot* merge =
                scrape.Find("goalrec_shard_merge_latency_us");
            merge != nullptr && merge->histogram.count > 0) {
          std::snprintf(buffer, sizeof(buffer),
                        "  merge_p99: %.1fus (%" PRId64 " merges)\n",
                        HistogramQuantile(merge->histogram, 0.99),
                        merge->histogram.count);
          out << buffer;
        }
      }
    }
  }

  if (sources.admission != nullptr) {
    const AdmissionController& admission = *sources.admission;
    out << "\n[admission]\n";
    out << "  in_flight: " << admission.in_flight() << " / limit "
        << admission.concurrency_limit() << "\n";
    out << "  queued: interactive="
        << admission.queue_depth(QueryPriority::kInteractive)
        << " batch=" << admission.queue_depth(QueryPriority::kBatch) << "\n";
    std::snprintf(
        buffer, sizeof(buffer), "  latency_baseline: %.2fms\n",
        static_cast<double>(admission.latency_baseline().count()) / 1e6);
    out << buffer;
  }

  if (sources.engine != nullptr) {
    out << "\n[ladder]\n";
    for (size_t i = 0; i < rung_names.size(); ++i) {
      out << "  rung " << i << " '" << rung_names[i] << "': breaker ";
      const CircuitBreaker* breaker = sources.engine->breaker(i);
      out << (breaker == nullptr
                  ? "off"
                  : CircuitBreakerStateToString(breaker->state()));
      out << "\n";
    }
  }

  if (sources.slo != nullptr) {
    sources.slo->RefreshGauges();
    out << "\n[slo] objective " << sources.slo->objective() << "\n";
    for (const obs::SloWindowReport& window : sources.slo->Report()) {
      std::snprintf(buffer, sizeof(buffer),
                    "  %-3s good %" PRId64 "/%" PRId64
                    " ratio=%.6f burn_rate=%.2f\n",
                    obs::SloWindowLabel(window.window_s), window.good,
                    window.total, window.good_ratio, window.burn_rate);
      out << buffer;
    }
  }

  if (sources.exemplars != nullptr) {
    std::vector<obs::TailExemplar> retained = sources.exemplars->Snapshot();
    out << "\n[tail exemplars] " << retained.size() << " retained (cap "
        << sources.exemplars->capacity_per_key() << " per rung)\n";
    for (const obs::TailExemplar& exemplar : retained) {
      std::snprintf(buffer, sizeof(buffer),
                    "  %s id=%016" PRIx64 " %.2fms snapshot=v%" PRIu64 "\n",
                    exemplar.key.c_str(), exemplar.id,
                    exemplar.latency_us / 1e3, exemplar.snapshot_version);
      out << buffer;
      std::snprintf(buffer, sizeof(buffer),
                    "    |H|=%u touched_impls=%u touched_slots=%u "
                    "dense_fallbacks=%u\n",
                    exemplar.stats.h_size, exemplar.stats.touched_impls,
                    exemplar.stats.touched_slots,
                    exemplar.stats.dense_fallbacks);
      out << buffer;
      if (exemplar.trace != nullptr) {
        out << Indent(obs::FormatTrace(*exemplar.trace), "    ");
      }
      if (!exemplar.events.empty()) {
        out << Indent(FormatServeEvents(exemplar.events, rung_names), "    ");
      }
    }
  }

  if (sources.recent_events > 0) {
    const obs::FlightRecorder& recorder = sources.recorder != nullptr
                                              ? *sources.recorder
                                              : obs::FlightRecorder::Default();
    std::vector<obs::RecorderEvent> recent =
        recorder.Snapshot(sources.recent_events);
    out << "\n[recent events] " << recent.size() << " of "
        << recorder.events_recorded() << " recorded across "
        << recorder.threads_seen() << " threads\n";
    out << Indent(FormatServeEvents(recent, rung_names), "  ");
  }

  return out.str();
}

}  // namespace goalrec::serve
