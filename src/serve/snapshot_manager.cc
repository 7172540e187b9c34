#include "serve/snapshot_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/recommender.h"
#include "model/library_io.h"
#include "model/validate.h"
#include "obs/recorder.h"
#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::serve {

/// Times a reload's stages back to back: each Lap observes the time since
/// the previous lap (or the start) under its stage, so the stages tile the
/// window TotalUs() reports.
class SnapshotManager::StageClock {
 public:
  explicit StageClock(obs::Histogram* const* stage_us)
      : stage_us_(stage_us), start_(Clock::now()), last_(start_) {}

  void Lap(ReloadStage stage) {
    const Clock::time_point now = Clock::now();
    stage_us_[static_cast<size_t>(stage)]->Observe(Us(now - last_));
    last_ = now;
  }

  /// From the start to the last lap.
  double TotalUs() const { return Us(last_ - start_); }

 private:
  using Clock = std::chrono::steady_clock;
  static double Us(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  obs::Histogram* const* stage_us_;
  Clock::time_point start_;
  Clock::time_point last_;
};

SnapshotManager::SnapshotManager(
    std::shared_ptr<const model::LibrarySnapshot> initial,
    LadderFactory factory, ReloadGuardOptions guard,
    obs::MetricRegistry* metrics)
    : factory_(std::move(factory)), guard_(std::move(guard)) {
  GOALREC_CHECK(initial != nullptr);
  GOALREC_CHECK(factory_ != nullptr);
  obs::MetricRegistry& registry =
      metrics != nullptr ? *metrics : obs::MetricRegistry::Default();
  reload_ok_ = registry.GetCounter("goalrec_library_reload_total",
                                   {{"result", "ok"}},
                                   "Library reload attempts, by result");
  reload_error_ = registry.GetCounter("goalrec_library_reload_total",
                                      {{"result", "error"}},
                                      "Library reload attempts, by result");
  reload_latency_us_ = registry.GetHistogram(
      "goalrec_library_reload_latency_us", obs::DefaultLatencyBucketsUs(), {},
      "Reload latency: (delta poll + fold +) ladder build + guard + swap "
      "(microseconds)");
  static constexpr const char* kStageNames[kReloadStages] = {
      "poll", "fold", "snapshot", "ladder", "validate", "canary", "swap"};
  for (size_t stage = 0; stage < kReloadStages; ++stage) {
    stage_us_[stage] = registry.GetHistogram(
        "goalrec_reload_stage_us", obs::DefaultLatencyBucketsUs(),
        {{"stage", kStageNames[stage]}},
        "Reload latency by stage, back to back on one clock (microseconds)");
  }
  library_version_ =
      registry.GetGauge("goalrec_library_version", {},
                        "Version of the currently served library snapshot");
  library_impls_ =
      registry.GetGauge("goalrec_library_implementations", {},
                        "Implementations in the currently served library");
  snapshot_age_seconds_ = registry.GetGauge(
      "goalrec_snapshot_age_seconds", {},
      "Seconds since the serving snapshot was last swapped in "
      "(refreshed on swap and on every periodic export)");
  constexpr char kFailureHelp[] =
      "Rejected reload candidates, by guard stage";
  failure_load_ = registry.GetCounter("goalrec_reload_failure_total",
                                      {{"reason", "load"}}, kFailureHelp);
  failure_ladder_ = registry.GetCounter("goalrec_reload_failure_total",
                                        {{"reason", "ladder"}}, kFailureHelp);
  failure_validate_ = registry.GetCounter("goalrec_reload_failure_total",
                                          {{"reason", "validate"}},
                                          kFailureHelp);
  failure_canary_ = registry.GetCounter("goalrec_reload_failure_total",
                                        {{"reason", "canary"}}, kFailureHelp);
  failure_delta_ = registry.GetCounter("goalrec_reload_failure_total",
                                       {{"reason", "delta"}}, kFailureHelp);
  failure_compact_ = registry.GetCounter("goalrec_reload_failure_total",
                                         {{"reason", "compact"}}, kFailureHelp);
  delta_segments_ = registry.GetGauge(
      "goalrec_delta_segments_active", {},
      "Delta segments applied on top of the serving base "
      "(the compaction backlog)");
  delta_tombstones_ = registry.GetGauge(
      "goalrec_delta_tombstoned_implementations", {},
      "Tombstoned implementations in the merged delta view");

  if (guard_.validate) {
    util::Status valid = model::ValidateLibrary(initial->library);
    GOALREC_CHECK(valid.ok()) << "initial library snapshot is invalid: "
                              << valid.ToString();
  }
  auto serving = BuildServing(std::move(initial));
  GOALREC_CHECK(serving.ok()) << serving.status().ToString();
  const ServingSnapshot& built = *serving.value();
  GOALREC_CHECK(!built.rungs.empty())
      << "LadderFactory produced an empty ladder";
  expected_rungs_.reserve(built.rungs.size());
  for (const ServingEngine::Rung& rung : built.rungs) {
    expected_rungs_.push_back(rung.name);
  }
  library_version_->Set(static_cast<int64_t>(built.library->version));
  library_impls_->Set(
      static_cast<int64_t>(built.library->library.num_implementations()));
  uint64_t version = built.library->version;
  current_.store(std::move(serving).value(), std::memory_order_release);
  last_swap_ns_.store(obs::FlightRecorder::NowNs(), std::memory_order_relaxed);
  snapshot_age_seconds_->Set(0);
  obs::FlightRecorder::Default().Record(obs::RecorderEventType::kSnapshotSwap,
                                        0, 0, version);
  // Last: the hook may fire from a scraping thread as soon as it is
  // registered, so everything it reads must already be initialised.
  registry_ = &registry;
  age_hook_id_ = registry.AddScrapeHook([this] { RefreshAgeGauge(); });
}

SnapshotManager::~SnapshotManager() {
  if (registry_ != nullptr) registry_->RemoveScrapeHook(age_hook_id_);
}

double SnapshotManager::snapshot_age_seconds() const {
  int64_t since =
      obs::FlightRecorder::NowNs() - last_swap_ns_.load(std::memory_order_relaxed);
  return since <= 0 ? 0.0 : static_cast<double>(since) / 1e9;
}

void SnapshotManager::RefreshAgeGauge() const {
  snapshot_age_seconds_->Set(static_cast<int64_t>(snapshot_age_seconds()));
}

util::StatusOr<std::shared_ptr<const ServingSnapshot>>
SnapshotManager::BuildServing(
    std::shared_ptr<const model::LibrarySnapshot> snapshot) const {
  GOALREC_CHECK(snapshot != nullptr);
  auto serving = std::make_shared<ServingSnapshot>();
  serving->library = std::move(snapshot);
  factory_(serving->library->library, *serving);
  for (const ServingEngine::Rung& rung : serving->rungs) {
    if (rung.recommender == nullptr) {
      return util::FailedPreconditionError(
          "LadderFactory left rung '" + rung.name + "' without a recommender");
    }
  }
  if (!expected_rungs_.empty()) {
    if (serving->rungs.size() != expected_rungs_.size()) {
      return util::FailedPreconditionError(
          "LadderFactory changed the ladder shape: expected " +
          std::to_string(expected_rungs_.size()) + " rungs, got " +
          std::to_string(serving->rungs.size()));
    }
    for (size_t i = 0; i < expected_rungs_.size(); ++i) {
      if (serving->rungs[i].name != expected_rungs_[i]) {
        return util::FailedPreconditionError(
            "LadderFactory changed rung " + std::to_string(i) + " from '" +
            expected_rungs_[i] + "' to '" + serving->rungs[i].name + "'");
      }
    }
  }
  return std::shared_ptr<const ServingSnapshot>(std::move(serving));
}

util::Status SnapshotManager::RunGuard(const ServingSnapshot& built,
                                       StageClock& clock,
                                       obs::Counter** reason) const {
  util::Status valid = guard_.validate
                           ? model::ValidateLibrary(built.library->library)
                           : util::Status::Ok();
  clock.Lap(ReloadStage::kValidate);
  if (!valid.ok()) {
    *reason = failure_validate_;
    return util::Status(valid.code(),
                        "candidate failed validation: " + valid.message());
  }
  if (guard_.canary_probes.empty()) {
    clock.Lap(ReloadStage::kCanary);
    return util::Status::Ok();
  }

  const model::ImplementationLibrary& library = built.library->library;
  const core::Recommender& top = *built.rungs.front().recommender;
  size_t passes = 0;
  size_t first_failed = guard_.canary_probes.size();
  for (size_t i = 0; i < guard_.canary_probes.size(); ++i) {
    model::Activity activity;
    for (const std::string& name : guard_.canary_probes[i]) {
      if (std::optional<uint32_t> id = library.actions().Find(name);
          id.has_value()) {
        activity.push_back(*id);
      }
    }
    util::Normalize(activity);
    bool passed = false;
    if (!activity.empty()) {
      passed = !top.Recommend(activity, kCanaryK).empty();
    }
    if (passed) {
      ++passes;
    } else if (first_failed == guard_.canary_probes.size()) {
      first_failed = i;
    }
  }
  clock.Lap(ReloadStage::kCanary);
  size_t need =
      std::min(guard_.min_canary_passes, guard_.canary_probes.size());
  if (passes < need) {
    *reason = failure_canary_;
    return util::FailedPreconditionError(
        "candidate failed canary: " + std::to_string(passes) + "/" +
        std::to_string(guard_.canary_probes.size()) +
        " probes passed (need " + std::to_string(need) +
        "; first failing probe " + std::to_string(first_failed) + ")");
  }
  return util::Status::Ok();
}

util::Status SnapshotManager::CountFailure(obs::Counter* reason_counter,
                                           util::Status status) {
  reason_counter->Increment();
  reload_error_->Increment();
  consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
  GOALREC_LOG(WARN) << "library reload rejected"
                    << util::Kv("status", status.ToString());
  return status;
}

util::Status SnapshotManager::Reload(
    std::shared_ptr<const model::LibrarySnapshot> snapshot) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  StageClock clock(stage_us_);
  return ReloadTimed(std::move(snapshot), clock);
}

util::Status SnapshotManager::ReloadTimed(
    std::shared_ptr<const model::LibrarySnapshot> snapshot,
    StageClock& clock) {
  auto serving = BuildServing(std::move(snapshot));
  clock.Lap(ReloadStage::kLadder);
  if (!serving.ok()) {
    reload_latency_us_->Observe(clock.TotalUs());
    return CountFailure(failure_ladder_, serving.status());
  }
  obs::Counter* guard_reason = failure_validate_;
  util::Status guard_status =
      RunGuard(*serving.value(), clock, &guard_reason);
  if (!guard_status.ok()) {
    reload_latency_us_->Observe(clock.TotalUs());
    return CountFailure(guard_reason, guard_status);
  }
  const ServingSnapshot& built = *serving.value();
  uint64_t version = built.library->version;
  size_t impls = built.library->library.num_implementations();
  // The swap: in-flight queries keep the snapshot they acquired; new
  // queries see the replacement from the next Acquire() on.
  std::shared_ptr<const ServingSnapshot> previous = current_.exchange(
      std::move(serving).value(), std::memory_order_acq_rel);
  last_swap_ns_.store(obs::FlightRecorder::NowNs(), std::memory_order_relaxed);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  consecutive_failures_.store(0, std::memory_order_relaxed);
  reload_ok_->Increment();
  library_version_->Set(static_cast<int64_t>(version));
  library_impls_->Set(static_cast<int64_t>(impls));
  snapshot_age_seconds_->Set(0);
  obs::FlightRecorder::Default().Record(obs::RecorderEventType::kSnapshotSwap,
                                        0, 0, version);
  // Frees the old snapshot here unless a query still holds it; then its
  // last query frees it.
  previous.reset();
  clock.Lap(ReloadStage::kSwap);
  reload_latency_us_->Observe(clock.TotalUs());
  GOALREC_LOG(INFO) << "library reloaded" << util::Kv("version", version)
                    << util::Kv("implementations", impls);
  return util::Status::Ok();
}

util::StatusOr<uint64_t> SnapshotManager::ReloadFromFile(
    const std::string& path, const util::RetryOptions& retry,
    const model::LoadOptions& load_options, model::LoadReport* report) {
  auto loaded = model::LoadLibrarySnapshot(path, retry, load_options, report);
  if (!loaded.ok()) {
    return CountFailure(failure_load_, loaded.status());
  }
  uint64_t version = loaded.value()->version;
  util::Status status = Reload(std::move(loaded).value());
  if (!status.ok()) return status;
  return version;
}

util::StatusOr<uint64_t> SnapshotManager::ReloadFromDeltaLog(
    model::DeltaLog& log) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  StageClock clock(stage_us_);
  std::vector<model::QuarantinedSegment> before = log.quarantined();
  util::StatusOr<model::DeltaLog::PollResult> poll = log.Poll();
  if (!poll.ok()) {
    // Base-level failure: the base snapshot is unreadable or a re-anchored
    // base failed to decode. The log kept its previous view; we keep our
    // previous snapshot.
    return CountFailure(failure_compact_, poll.status());
  }

  // Segments quarantined by this poll (torn/corrupt/out-of-order tail) are
  // the designed degradation: the valid prefix still publishes below, but
  // each fresh quarantine is counted and logged so dashboards see it.
  int64_t fresh = 0;
  for (const model::QuarantinedSegment& q : log.quarantined()) {
    bool seen = false;
    for (const model::QuarantinedSegment& b : before) {
      if (b.file == q.file) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    ++fresh;
    GOALREC_LOG(WARN) << "delta segment quarantined"
                      << util::Kv("file", q.file)
                      << util::Kv("reason", q.reason);
  }
  if (fresh > 0) failure_delta_->Increment(fresh);

  const model::DeltaLogStats stats = log.stats();
  delta_segments_->Set(static_cast<int64_t>(stats.segments_active));
  delta_tombstones_->Set(
      static_cast<int64_t>(stats.view.tombstoned_implementations));

  if (poll.value().segments_applied == 0 && !poll.value().reopened_base) {
    return current_version();  // no-op poll: nothing new to publish
  }
  clock.Lap(ReloadStage::kPoll);
  // The view folds on read; the candidate is then the fold's own snapshot,
  // published without a copy.
  (void)log.library();
  clock.Lap(ReloadStage::kFold);
  std::shared_ptr<const model::LibrarySnapshot> snapshot = log.snapshot();
  clock.Lap(ReloadStage::kSnapshot);
  uint64_t version = snapshot->version;
  if (util::Status status = ReloadTimed(std::move(snapshot), clock);
      !status.ok()) {
    return status;
  }
  return version;
}

util::Status SnapshotManager::CountDeltaFailure(util::Status status) {
  return CountFailure(failure_delta_, std::move(status));
}

util::Status SnapshotManager::CountCompactFailure(util::Status status) {
  return CountFailure(failure_compact_, std::move(status));
}

}  // namespace goalrec::serve
