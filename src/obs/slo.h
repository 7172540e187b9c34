#ifndef GOALREC_OBS_SLO_H_
#define GOALREC_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

// Rolling SLO accounting against the serving deadline. The tracker holds a
// ring of per-second (good, total) buckets covering the last 30 minutes and
// reads three standard burn-rate windows out of it — 1 m, 5 m, 30 m — the
// multi-window alerting shape from the SRE workbook: the short window
// catches a fast burn, the long one keeps a slow leak from hiding between
// alerts.
//
// Definitions. A query is *good* when it finished OK and met its deadline
// (the serving engine feeds this; see EngineOptions::slo). With objective o
// (say 0.999), the error budget fraction is 1 − o, and
//
//   burn_rate(W) = bad_fraction(W) / (1 − o)
//
// — burn rate 1.0 spends the budget exactly at the sustainable pace, 14.4
// burns a 30-day budget in ~2 days (the classic page threshold).
//
// Cost. Record() is a mutex acquire, a couple of integer bumps and (once a
// second) a gauge refresh — per *query*, not per ranked candidate, so it is
// invisible next to a scoring pass. Gauges are integers, so ratios export
// in parts-per-million and burn rates in millis (documented in the help
// strings and docs/observability.md).

namespace goalrec::obs {

struct SloOptions {
  /// Good-event objective in (0, 1): 0.999 = "99.9% of queries good".
  double objective = 0.999;
  /// Registry for goalrec_slo_* metrics; null = MetricRegistry::Default().
  /// Not owned; must outlive the tracker.
  MetricRegistry* metrics = nullptr;
  /// Test seam: monotonic seconds. Defaults to the flight recorder's clock
  /// divided down.
  std::function<int64_t()> now_s;
};

/// One window's reading, as rendered by statusz and the gauges.
struct SloWindowReport {
  int window_s = 0;
  int64_t good = 0;
  int64_t total = 0;
  /// good/total, or 1.0 when the window saw no events (no traffic spends
  /// no budget).
  double good_ratio = 1.0;
  /// bad_fraction / (1 - objective).
  double burn_rate = 0.0;
};

class SloTracker {
 public:
  /// The standard multi-window set, seconds. kWindows[2] is also the ring
  /// span — nothing older is retained.
  static constexpr int kWindows[3] = {60, 300, 1800};

  explicit SloTracker(SloOptions options = {});
  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Accounts one finished query. Thread-safe.
  void Record(bool good);

  /// Readings for all three windows, shortest first.
  std::vector<SloWindowReport> Report() const;

  /// One window (must be one of kWindows).
  SloWindowReport Window(int window_s) const;

  /// Pushes the current window readings into the goalrec_slo_* gauges.
  /// Record() also does this when the clock ticks over a second; call it
  /// before an on-demand scrape (statusz does).
  void RefreshGauges();

  double objective() const { return objective_; }

 private:
  struct Bucket {
    int64_t good = 0;
    int64_t total = 0;
  };

  /// Rotates the ring up to `now`, zeroing skipped seconds. Caller holds
  /// mu_. Const because every reader must advance first — a quiet period
  /// would otherwise report windows ending at the last write.
  void AdvanceLocked(int64_t now) const;
  SloWindowReport WindowLocked(int window_s) const;
  void RefreshGaugesLocked();

  double objective_;
  std::function<int64_t()> now_s_;

  mutable std::mutex mu_;
  mutable std::vector<Bucket> ring_;  // kWindows[2] one-second buckets
  mutable int64_t current_second_ = 0;

  Counter* good_events_ = nullptr;
  Counter* bad_events_ = nullptr;
  /// Indexed like kWindows.
  Gauge* good_ratio_ppm_[3] = {};
  Gauge* burn_rate_milli_[3] = {};
};

/// The gauge label for a window: 60 -> "1m", 300 -> "5m", 1800 -> "30m".
const char* SloWindowLabel(int window_s);

}  // namespace goalrec::obs

#endif  // GOALREC_OBS_SLO_H_
