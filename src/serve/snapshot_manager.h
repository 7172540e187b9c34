#ifndef GOALREC_SERVE_SNAPSHOT_MANAGER_H_
#define GOALREC_SERVE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/delta_log.h"
#include "model/library_io.h"
#include "model/snapshot.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "util/retry.h"
#include "util/status.h"

// Hot library reload for the serving path.
//
// The manager owns the *current* serving snapshot behind a single
// std::atomic<std::shared_ptr>: queries acquire it with one lock-free atomic
// load and hold the shared_ptr for their whole lifetime, a reload builds the
// replacement off to the side and publishes it with one atomic exchange.
// In-flight queries keep answering from the snapshot they acquired — no
// torn reads, no locks on the query path, no waiting for drain; the old
// library is destroyed when its last query finishes.
//
// A ServingSnapshot bundles the library with the ladder recommenders built
// against it, because a recommender must never outlive the library it
// indexes: co-ownership makes the swap safe by construction. The ladder
// *shape* (rung count and names) is fixed for the manager's lifetime — the
// engine resolves per-rung metrics and circuit breakers positionally at
// construction, and reloads swap the rungs' contents, not the ladder.
//
// Reload guard. Every candidate snapshot runs a guard BEFORE it is
// published: structural validation (model/validate.h) and a pinned set of
// canary queries against the candidate's own ladder. A candidate failing
// any check is discarded — the swap never happens, so "rollback" is simply
// the current snapshot continuing to serve — and the failure is counted in
// goalrec_reload_failure_total{reason} (reason ∈ load|ladder|validate|
// canary). docs/data_plane.md describes the full reload state machine.
//
// Stage clock. Every reload times its stages back to back on one clock
// into goalrec_reload_stage_us{stage}: poll, fold and snapshot (delta
// reloads only), then ladder, validate, canary and swap (which includes
// releasing the old snapshot). The stages tile the window that
// goalrec_library_reload_latency_us times, so they account for all of it.
//
// See docs/serving.md ("Library hot reload") for the operational story.

namespace goalrec::model {
struct ShardedSnapshot;
}  // namespace goalrec::model

namespace goalrec::serve {

/// One fully wired serving view: a library snapshot plus the ladder built
/// against it. Immutable after construction.
struct ServingSnapshot {
  std::shared_ptr<const model::LibrarySnapshot> library;
  /// The recommenders backing `rungs`, co-owned with the library.
  std::vector<std::unique_ptr<const core::Recommender>> owned;
  /// Ladder rungs, best first; `recommender` points into `owned`.
  std::vector<ServingEngine::Rung> rungs;
  /// Shard partition of `library` when the ladder serves sharded
  /// (serve/sharded.h); null for unsharded deployments. Living on the
  /// snapshot, the whole shard set swaps atomically with the library — a
  /// query holds either the old complete set or the new one, never a mix.
  std::shared_ptr<const model::ShardedSnapshot> sharded;
};

/// Builds the ladder for one library: push recommenders into `out.owned`
/// and the rung order into `out.rungs`. Invoked once per (re)load; must
/// produce the same rung count and names every time.
using LadderFactory = std::function<void(const model::ImplementationLibrary&,
                                         ServingSnapshot& out)>;

/// Recommendations requested per canary probe (ReloadGuardOptions).
inline constexpr size_t kCanaryK = 5;

/// Pre-publish checks a candidate snapshot must pass before it replaces the
/// serving one. Failing candidates are discarded; the current snapshot keeps
/// serving untouched.
struct ReloadGuardOptions {
  /// Run model::ValidateLibrary (index cross-consistency) on every
  /// candidate. Cheap relative to the ladder build; leave on.
  bool validate = true;
  /// Pinned canary probes, each a list of action *names* (numeric ids are
  /// renumbered across reloads; names are the stable vocabulary). For each
  /// probe the guard resolves the names against the candidate's vocabulary
  /// and queries the candidate's top rung: the probe passes when at least
  /// one name resolves and at least one recommendation comes back.
  std::vector<std::vector<std::string>> canary_probes;
  /// Probes that must pass for the candidate to publish. Clamped to
  /// canary_probes.size(); the default requires every probe to pass.
  size_t min_canary_passes = static_cast<size_t>(-1);
};

class SnapshotManager {
 public:
  /// Builds the initial serving snapshot from `initial` via `factory`,
  /// guarding reloads with `guard`. `metrics` defaults to
  /// obs::MetricRegistry::Default(); not owned. The initial snapshot must
  /// pass validation (checked fatally — serving cannot start from a corrupt
  /// library); canaries apply to reloads only.
  SnapshotManager(std::shared_ptr<const model::LibrarySnapshot> initial,
                  LadderFactory factory, ReloadGuardOptions guard,
                  obs::MetricRegistry* metrics = nullptr);

  /// Convenience: default guard (validation on, no canaries).
  SnapshotManager(std::shared_ptr<const model::LibrarySnapshot> initial,
                  LadderFactory factory,
                  obs::MetricRegistry* metrics = nullptr)
      : SnapshotManager(std::move(initial), std::move(factory),
                        ReloadGuardOptions{}, metrics) {}

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  ~SnapshotManager();

  /// The current serving snapshot — one lock-free atomic shared_ptr load.
  /// Callers keep the returned pointer for the duration of their query.
  std::shared_ptr<const ServingSnapshot> Acquire() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Builds a ladder for `snapshot` and atomically publishes it. Fails
  /// (kFailedPrecondition, current snapshot untouched) if the factory
  /// produced a different ladder shape. Reloads are serialised; queries are
  /// never blocked.
  util::Status Reload(std::shared_ptr<const model::LibrarySnapshot> snapshot);

  /// Loads `path` through model::LoadLibrarySnapshot (".snap" or text) with
  /// `retry` and `load_options`, then publishes it through the guard.
  /// On any failure the current snapshot keeps serving. Returns the new
  /// library version on success. `report`, when given, receives what a
  /// quarantine-mode load dropped, with per-record provenance.
  util::StatusOr<uint64_t> ReloadFromFile(
      const std::string& path, const util::RetryOptions& retry = {},
      const model::LoadOptions& load_options = {},
      model::LoadReport* report = nullptr);

  /// Reader side of a delta directory (docs/data_plane.md, "Delta segments
  /// & compaction"): polls `log` and, when the poll surfaced changes (new
  /// segments applied or a re-anchored base), publishes the merged library
  /// through the guard. Failure accounting follows the degradation design —
  /// the current snapshot keeps serving in every error path:
  ///   * the base is unreadable/torn, or a re-anchored base fails to
  ///     decode: goalrec_reload_failure_total{reason=compact}, error
  ///     returned;
  ///   * a published segment was quarantined this poll (torn/corrupt/
  ///     out-of-order tail): goalrec_reload_failure_total{reason=delta};
  ///     the valid prefix still publishes;
  ///   * guard rejection of the merged candidate counts under its own
  ///     reason (validate/canary/ladder) as for any reload.
  /// The candidate is the log's own snapshot (model::DeltaLog::snapshot()),
  /// published without a copy. The reload latency of a delta publish runs
  /// from the poll to the swap.
  /// Returns the served library version (unchanged when the poll was a
  /// no-op). Not thread-safe with respect to `log` — callers own the poll
  /// loop thread.
  util::StatusOr<uint64_t> ReloadFromDeltaLog(model::DeltaLog& log);

  /// Counts one failed delta-segment publish/apply against
  /// goalrec_reload_failure_total{reason=delta}. For writer-side callers
  /// (CLI mutation loop, chaos harness) whose Append failed; the serving
  /// snapshot is untouched. Returns `status` for chaining.
  util::Status CountDeltaFailure(util::Status status);

  /// Counts one failed compaction/base publish against
  /// goalrec_reload_failure_total{reason=compact}. Writer-side counterpart
  /// for Compact failures. Returns `status` for chaining.
  util::Status CountCompactFailure(util::Status status);

  /// Version of the currently served library.
  uint64_t current_version() const { return Acquire()->library->version; }

  /// Successful reloads since construction (the initial build excluded).
  uint64_t reload_count() const {
    return reloads_.load(std::memory_order_relaxed);
  }

  /// Failed reloads since the last success. Watch loops feed this into
  /// their backoff policy (util/retry.h) so a persistently bad file does
  /// not get hammered at the poll interval.
  uint64_t consecutive_failures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }

  /// Seconds since the serving snapshot was last swapped in (initial build
  /// counts). The staleness signal for dashboards watching a reload loop.
  double snapshot_age_seconds() const;

  /// Re-publishes the age into goalrec_snapshot_age_seconds. The gauge is
  /// also set to 0 at every swap, and a registry scrape hook calls this on
  /// every export/scrape, so the exported age moves between swaps even on a
  /// quiet server.
  void RefreshAgeGauge() const;

  /// Test seam: backdates the last-swap timestamp so age-gauge behaviour is
  /// testable without sleeping.
  void set_last_swap_ns_for_test(int64_t ns) {
    last_swap_ns_.store(ns, std::memory_order_relaxed);
  }

 private:
  /// The stages of goalrec_reload_stage_us, in the order a reload runs them.
  enum class ReloadStage {
    kPoll,
    kFold,
    kSnapshot,
    kLadder,
    kValidate,
    kCanary,
    kSwap,
  };
  static constexpr size_t kReloadStages = 7;
  class StageClock;

  util::StatusOr<std::shared_ptr<const ServingSnapshot>> BuildServing(
      std::shared_ptr<const model::LibrarySnapshot> snapshot) const;

  /// Runs validation + canaries against a built candidate, lapping
  /// `clock` after each. On failure, `*reason` names the
  /// goalrec_reload_failure_total counter to bump.
  util::Status RunGuard(const ServingSnapshot& built, StageClock& clock,
                        obs::Counter** reason) const;

  /// Reload's body: ladder, guard and swap, timed on `clock` (already
  /// running when a delta publish polled and folded first).
  util::Status ReloadTimed(
      std::shared_ptr<const model::LibrarySnapshot> snapshot,
      StageClock& clock);

  /// Counts one failed reload attempt under `reason_counter`.
  util::Status CountFailure(obs::Counter* reason_counter, util::Status status);

  LadderFactory factory_;
  ReloadGuardOptions guard_;
  /// Rung names of the initial build; every reload must reproduce them.
  std::vector<std::string> expected_rungs_;
  std::atomic<std::shared_ptr<const ServingSnapshot>> current_;
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> consecutive_failures_{0};
  /// FlightRecorder::NowNs() of the last publish (ctor or Reload).
  std::atomic<int64_t> last_swap_ns_{0};
  /// Serialises Reload/ReloadFromFile against each other only.
  std::mutex reload_mu_;

  obs::MetricRegistry* registry_ = nullptr;
  /// Scrape hook refreshing the age gauge; removed in the destructor.
  uint64_t age_hook_id_ = 0;

  obs::Counter* reload_ok_ = nullptr;
  obs::Counter* reload_error_ = nullptr;
  obs::Histogram* reload_latency_us_ = nullptr;
  // goalrec_reload_stage_us{stage}, indexed by ReloadStage.
  obs::Histogram* stage_us_[kReloadStages] = {};
  obs::Gauge* library_version_ = nullptr;
  obs::Gauge* library_impls_ = nullptr;
  obs::Gauge* snapshot_age_seconds_ = nullptr;
  // Delta-log mutation health, refreshed on every ReloadFromDeltaLog.
  obs::Gauge* delta_segments_ = nullptr;
  obs::Gauge* delta_tombstones_ = nullptr;
  // goalrec_reload_failure_total{reason}: why candidates were rejected.
  obs::Counter* failure_load_ = nullptr;
  obs::Counter* failure_ladder_ = nullptr;
  obs::Counter* failure_validate_ = nullptr;
  obs::Counter* failure_canary_ = nullptr;
  obs::Counter* failure_delta_ = nullptr;
  obs::Counter* failure_compact_ = nullptr;
};

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_SNAPSHOT_MANAGER_H_
