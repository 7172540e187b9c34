#include "obs/slo.h"

#include <algorithm>

#include "obs/recorder.h"
#include "util/logging.h"

namespace goalrec::obs {
namespace {

constexpr int kRingSpan = SloTracker::kWindows[2];

int64_t DefaultNowS() { return FlightRecorder::NowNs() / 1000000000; }

}  // namespace

const char* SloWindowLabel(int window_s) {
  switch (window_s) {
    case 60:
      return "1m";
    case 300:
      return "5m";
    case 1800:
      return "30m";
  }
  return "?";
}

SloTracker::SloTracker(SloOptions options)
    : objective_(options.objective),
      now_s_(options.now_s ? std::move(options.now_s) : DefaultNowS),
      ring_(kRingSpan) {
  GOALREC_CHECK(objective_ > 0.0 && objective_ < 1.0);
  MetricRegistry& registry =
      options.metrics != nullptr ? *options.metrics : MetricRegistry::Default();
  good_events_ = registry.GetCounter(
      "goalrec_slo_events_total", {{"result", "good"}},
      "Finished queries accounted against the SLO, by result.");
  bad_events_ = registry.GetCounter(
      "goalrec_slo_events_total", {{"result", "bad"}},
      "Finished queries accounted against the SLO, by result.");
  for (size_t i = 0; i < 3; ++i) {
    const char* label = SloWindowLabel(kWindows[i]);
    good_ratio_ppm_[i] = registry.GetGauge(
        "goalrec_slo_good_ratio_ppm", {{"window", label}},
        "Good-event ratio over the window, parts per million "
        "(1000000 = every query good; 1000000 when the window is empty).");
    burn_rate_milli_[i] = registry.GetGauge(
        "goalrec_slo_burn_rate_milli", {{"window", label}},
        "Error-budget burn rate over the window, thousandths "
        "(1000 = burning exactly at the sustainable pace).");
  }
  current_second_ = now_s_();
  std::lock_guard<std::mutex> lock(mu_);
  RefreshGaugesLocked();
}

void SloTracker::AdvanceLocked(int64_t now) const {
  if (now <= current_second_) return;  // same second, or a test clock read back
  int64_t skipped = now - current_second_;
  if (skipped >= kRingSpan) {
    for (Bucket& bucket : ring_) bucket = Bucket{};
  } else {
    for (int64_t s = current_second_ + 1; s <= now; ++s) {
      ring_[static_cast<size_t>(s % kRingSpan)] = Bucket{};
    }
  }
  current_second_ = now;
}

void SloTracker::Record(bool good) {
  if (good) {
    good_events_->Increment();
  } else {
    bad_events_->Increment();
  }
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = now_s_();
  bool ticked = now > current_second_;
  AdvanceLocked(now);
  Bucket& bucket = ring_[static_cast<size_t>(current_second_ % kRingSpan)];
  bucket.total++;
  if (good) bucket.good++;
  if (ticked) RefreshGaugesLocked();
}

SloWindowReport SloTracker::WindowLocked(int window_s) const {
  SloWindowReport report;
  report.window_s = window_s;
  for (int64_t s = current_second_ - window_s + 1; s <= current_second_; ++s) {
    if (s < 0) continue;
    const Bucket& bucket = ring_[static_cast<size_t>(s % kRingSpan)];
    report.good += bucket.good;
    report.total += bucket.total;
  }
  if (report.total > 0) {
    report.good_ratio =
        static_cast<double>(report.good) / static_cast<double>(report.total);
  }
  report.burn_rate = (1.0 - report.good_ratio) / (1.0 - objective_);
  return report;
}

void SloTracker::RefreshGaugesLocked() {
  for (size_t i = 0; i < 3; ++i) {
    SloWindowReport report = WindowLocked(kWindows[i]);
    good_ratio_ppm_[i]->Set(static_cast<int64_t>(report.good_ratio * 1e6));
    burn_rate_milli_[i]->Set(static_cast<int64_t>(report.burn_rate * 1e3));
  }
}

void SloTracker::RefreshGauges() {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceLocked(now_s_());
  RefreshGaugesLocked();
}

SloWindowReport SloTracker::Window(int window_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceLocked(now_s_());
  return WindowLocked(window_s);
}

std::vector<SloWindowReport> SloTracker::Report() const {
  std::vector<SloWindowReport> reports;
  reports.reserve(3);
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceLocked(now_s_());
  for (int window : kWindows) reports.push_back(WindowLocked(window));
  return reports;
}

}  // namespace goalrec::obs
