// Chaos harness for the hardened data plane (docs/data_plane.md): hammers
// SnapshotManager reload with filesystem faults while query threads serve,
// and checks the two invariants the snapshot format + reload guard promise:
//
//   1. The server NEVER serves a torn or invalid snapshot. Every snapshot a
//      query thread acquires must be one the writer completed cleanly
//      (each epoch library carries a marker goal naming its epoch, so the
//      check is O(1) per acquire).
//   2. The server always converges back: after every faulted publish and
//      rejected reload, a clean rewrite must reload successfully, and the
//      old snapshot must have kept serving in between.
//
// The writer deliberately publishes NON-atomically (plain overwrite, no
// rename) and corrupts the staged bytes through FaultInjector's filesystem
// fault plane (truncate-at-offset, bit flips, torn partial writes, publish
// stalls). The CRC-framed snapshot format must reject every corrupted file
// at load, so "rollback" is the guard refusing to publish.
//
// Prints one JSON document; exits non-zero when an invariant breaks.
// Recorded full run in BENCH_chaos.json. scripts/check.sh runs --smoke in
// the plain and ASan trees as the `chaos` suite.
//
// Flags: --smoke (short run; CI), --seed, --epochs, --threads,
// --mode=snapshot|delta (delta: hostile ".sdelta" publishes + compactions
// against a polling reader; see RunDeltaMode), --recovery_budget_ms.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/breadth.h"
#include "eval/scaling.h"
#include "model/delta.h"
#include "model/delta_log.h"
#include "model/library_io.h"
#include "model/merged_view.h"
#include "model/snapshot.h"
#include "model/snapshot_io.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/fault_injection.h"
#include "serve/snapshot_manager.h"
#include "util/crc32c.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kMarkerPrefix[] = "chaos_epoch_";

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(samples.size()));
  index = std::min(index, samples.size() - 1);
  return samples[index];
}

/// The epoch stamped into a library by MakeEpochLibrary, or -1 when the
/// marker is missing/garbled (which counts as serving an invalid snapshot).
int64_t EpochOf(const goalrec::model::ImplementationLibrary& library) {
  if (library.num_implementations() == 0) return -1;
  const std::string& goal = library.goals().Name(
      library.GoalOf(library.num_implementations() - 1));
  if (goal.rfind(kMarkerPrefix, 0) != 0) return -1;
  return std::atoll(goal.c_str() + sizeof(kMarkerPrefix) - 1);
}

/// Base library + one marker implementation whose goal names the epoch. The
/// marker actions reuse existing ids so the implementation is connected.
goalrec::model::ImplementationLibrary MakeEpochLibrary(
    const goalrec::model::ImplementationLibrary& base, int64_t epoch) {
  goalrec::model::LibraryBuilder builder =
      goalrec::model::LibraryBuilder::FromLibrary(base);
  std::vector<std::string> actions = {base.actions().Name(0),
                                      base.actions().Name(1)};
  builder.AddImplementation(kMarkerPrefix + std::to_string(epoch), actions);
  return std::move(builder).Build();
}

void BreadthLadder(const goalrec::model::ImplementationLibrary& library,
                   goalrec::serve::ServingSnapshot& out) {
  auto breadth = std::make_unique<goalrec::core::BreadthRecommender>(&library);
  out.rungs.push_back({"breadth", breadth.get()});
  out.owned.push_back(std::move(breadth));
}

goalrec::model::Activity MakeActivity(uint32_t num_actions, uint64_t seed) {
  goalrec::util::Rng rng(seed);
  goalrec::model::Activity activity;
  for (int i = 0; i < 6; ++i) {
    activity.push_back(rng.UniformUint32(num_actions));
  }
  goalrec::util::Normalize(activity);
  return activity;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The hostile publisher: plain overwrite, no temp file, no rename.
bool OverwriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

/// Segment file name matching DeltaLog's on-disk layout — the hostile
/// delta writer bypasses DeltaLog::Append to publish non-atomically.
std::string SegmentName(uint32_t base_crc, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%08x-%06llu.sdelta", base_crc,
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Delta chaos mode (--mode=delta): per epoch, a hostile writer publishes a
/// ".sdelta" segment non-atomically (often torn / bit-flipped / delayed),
/// a polling reader folds it into the serving snapshot, and every seventh
/// epoch a compactor republishes the base — also through the fault plane.
/// Invariants:
///   1. Query threads never observe a torn view: the served epoch is always
///      one whose segment (or base) was completely published.
///   2. Rollback is always to the last durable prefix: after a corrupt
///      publish the serving view stays at the previous epoch, and once the
///      writer rewrites the segment cleanly the reader converges to it.
///   3. Recovery p99 stays under --recovery_budget_ms (exit non-zero).
int RunDeltaMode(const goalrec::util::FlagParser& flags) {
  const bool smoke = flags.Get<bool>("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 43));
  const int64_t epochs = flags.Get<int64_t>("epochs", smoke ? 60 : 400);
  const int threads = flags.Get<int>("threads", 4);
  const double budget_ms =
      static_cast<double>(flags.Get<int64_t>("recovery_budget_ms", 250));

  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 2000 : 10000;
  workload.num_actions = smoke ? 500 : 2000;
  workload.implementation_size = 6;
  goalrec::model::ImplementationLibrary base =
      goalrec::eval::BuildScalingLibrary(workload, seed);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("goalrec_chaos_delta_" +
        std::to_string(static_cast<long>(::getpid()))))
          .string();
  std::filesystem::create_directories(dir);
  const std::string base_path = dir + "/base.snap";

  // Epoch 0: marker-stamped base, published atomically.
  goalrec::model::ImplementationLibrary epoch0 = MakeEpochLibrary(base, 0);
  std::string base_bytes = goalrec::model::EncodeSnapshot(epoch0);
  if (!goalrec::model::AtomicWriteFile(base_bytes, base_path).ok()) {
    std::fprintf(stderr, "cannot write initial base\n");
    return 1;
  }
  // Writer-side view: the oracle for what each clean publish should fold
  // to, and the source of chain headers for staged segments.
  goalrec::model::MergedLibraryView wview(
      epoch0, goalrec::util::Crc32c(base_bytes));

  goalrec::model::DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;  // cleanup is the writer's
  goalrec::util::StatusOr<goalrec::model::DeltaLog> opened =
      goalrec::model::DeltaLog::Open(dir, reader_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "reader open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  goalrec::model::DeltaLog reader = std::move(opened).value();

  goalrec::obs::MetricRegistry registry;
  goalrec::serve::ReloadGuardOptions guard;
  guard.validate = true;
  guard.canary_probes = {{base.actions().Name(0), base.actions().Name(1)}};
  goalrec::serve::SnapshotManager manager(
      goalrec::model::MakeSnapshot(reader.library(), dir), BreadthLadder,
      guard, &registry);
  goalrec::serve::EngineOptions engine_options;
  engine_options.metrics = &registry;
  goalrec::serve::ServingEngine engine(&manager, engine_options);

  goalrec::serve::FaultInjectionOptions fault_options;
  fault_options.seed = seed + 1;
  fault_options.fs_truncate_rate = 0.2;
  fault_options.fs_bitflip_rate = 0.2;
  fault_options.fs_partial_write_rate = 0.2;
  fault_options.fs_rename_delay_rate = 0.1;
  fault_options.fs_rename_delay_ms = 1;
  goalrec::serve::FaultInjector injector(fault_options);

  std::vector<std::atomic<bool>> good_epochs(
      static_cast<size_t>(epochs) + 2);
  good_epochs[0].store(true);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_total{0};
  std::atomic<int64_t> torn_served{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const goalrec::serve::ServingSnapshot> snapshot =
            manager.Acquire();
        int64_t epoch = EpochOf(snapshot->library->library);
        if (epoch < 0 ||
            epoch >= static_cast<int64_t>(good_epochs.size()) ||
            !good_epochs[static_cast<size_t>(epoch)].load(
                std::memory_order_relaxed)) {
          torn_served.fetch_add(1, std::memory_order_relaxed);
        }
        goalrec::model::Activity activity = MakeActivity(
            snapshot->library->library.num_actions(),
            seed + static_cast<uint64_t>(t) * 1000003 + q++);
        (void)engine.Serve(activity, 10);
        queries_total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  goalrec::util::Rng rng(seed, /*stream=*/7);
  int64_t segment_publishes = 0;
  int64_t faulted_publishes = 0;
  int64_t compactions = 0;
  int64_t faulted_compactions = 0;
  int64_t unexpected_accepts = 0;
  int64_t unexpected_rejects = 0;
  int64_t rollback_violations = 0;
  bool always_recovered = true;
  std::vector<double> recovery_ms;
  int64_t last_good = 0;

  auto served_epoch = [&] {
    return EpochOf(manager.Acquire()->library->library);
  };

  for (int64_t e = 1; e <= epochs; ++e) {
    // The epoch's segment: a marker append, sometimes plus a tombstone of
    // an older row (never the latest marker, which is always the last
    // live row).
    goalrec::model::DeltaOps ops;
    ops.appended.push_back(goalrec::model::DeltaImplementation{
        kMarkerPrefix + std::to_string(e),
        {base.actions().Name(0), base.actions().Name(1)}});
    uint32_t live = wview.library().num_implementations();
    if (live > 2 && rng.Bernoulli(0.4)) {
      ops.tombstoned_impls.push_back(rng.UniformUint32(live - 1));
    }

    const uint64_t seq = wview.next_chain_seq();
    const std::string seg_path =
        dir + "/" + SegmentName(wview.base_crc32c(), seq);
    const std::string clean_bytes =
        goalrec::model::EncodeDeltaSegment(wview.NextHeader(), ops);
    std::string staged = clean_bytes;
    goalrec::serve::FsFault fault = injector.MaybeCorruptBytes(&staged, "");
    const bool corrupted =
        fault != goalrec::serve::FsFault::kNone && staged != clean_bytes;
    ++segment_publishes;
    if (!corrupted) {
      good_epochs[static_cast<size_t>(e)].store(true);
    } else {
      ++faulted_publishes;
    }
    std::this_thread::sleep_for(injector.MaybeRenameDelay());
    if (!OverwriteRaw(seg_path, staged)) {
      std::fprintf(stderr, "segment publish failed\n");
      return 1;
    }

    Clock::time_point fault_start = Clock::now();
    goalrec::util::StatusOr<uint64_t> poll =
        manager.ReloadFromDeltaLog(reader);
    if (corrupted) {
      int64_t served = served_epoch();
      if (served == e) ++unexpected_accepts;  // corrupt segment applied
      if (served != last_good) ++rollback_violations;
      // The restarted writer rewrites the segment cleanly; the reader must
      // converge to it (the quarantine is per-poll, not sticky).
      good_epochs[static_cast<size_t>(e)].store(true);
      if (!OverwriteRaw(seg_path, clean_bytes)) return 1;
      poll = manager.ReloadFromDeltaLog(reader);
      if (poll.ok() && served_epoch() == e) {
        recovery_ms.push_back(
            static_cast<double>((Clock::now() - fault_start).count()) / 1e6);
        last_good = e;
      } else {
        always_recovered = false;
      }
    } else {
      if (!poll.ok() || served_epoch() != e) {
        ++unexpected_rejects;  // a clean segment must always fold in
      } else {
        last_good = e;
      }
    }

    // Advance the writer's oracle view with the clean bytes.
    goalrec::util::StatusOr<goalrec::model::DeltaSegment> decoded =
        goalrec::model::DecodeDeltaSegment(clean_bytes, seg_path);
    if (!decoded.ok() ||
        !wview
             .ApplySegment(decoded.value(),
                           goalrec::util::Crc32c(clean_bytes), seg_path)
             .ok()) {
      std::fprintf(stderr, "writer view diverged at epoch %lld\n",
                   static_cast<long long>(e));
      return 1;
    }

    // Interleaved compaction: fold base+segments into a fresh base, also
    // through the fault plane, then retire the consumed chain.
    if (e % 7 != 0) continue;
    const uint32_t old_chain_crc = wview.base_crc32c();
    const uint64_t consumed_segments = wview.next_chain_seq() - 1;
    goalrec::model::ImplementationLibrary folded = wview.library();
    std::string new_base = goalrec::model::EncodeSnapshot(folded);
    std::string staged_base = new_base;
    fault = injector.MaybeCorruptBytes(&staged_base, base_bytes);
    const bool base_corrupted =
        fault != goalrec::serve::FsFault::kNone &&
        staged_base != new_base && staged_base != base_bytes;
    ++compactions;
    if (base_corrupted) ++faulted_compactions;
    if (!OverwriteRaw(base_path, staged_base)) return 1;

    fault_start = Clock::now();
    poll = manager.ReloadFromDeltaLog(reader);
    if (base_corrupted) {
      // A torn base must be rejected outright, old view keeps serving.
      if (served_epoch() != last_good) ++rollback_violations;
      if (!goalrec::model::AtomicWriteFile(new_base, base_path).ok()) {
        return 1;
      }
      poll = manager.ReloadFromDeltaLog(reader);
      if (poll.ok() && served_epoch() == last_good) {
        recovery_ms.push_back(
            static_cast<double>((Clock::now() - fault_start).count()) / 1e6);
      } else {
        always_recovered = false;
      }
    } else if (!poll.ok()) {
      ++unexpected_rejects;
    }
    // The writer retires the consumed chain and re-anchors.
    for (uint64_t s = 1; s <= consumed_segments; ++s) {
      std::error_code ec;
      std::filesystem::remove(dir + "/" + SegmentName(old_chain_crc, s), ec);
    }
    base_bytes = new_base;
    wview = goalrec::model::MergedLibraryView(
        std::move(folded), goalrec::util::Crc32c(base_bytes));
    // Post-cleanup poll so the reader drops its quarantine of the now
    // recognisably-stale chain (if any was recorded mid-compaction).
    (void)manager.ReloadFromDeltaLog(reader);
  }
  stop.store(true);
  for (std::thread& t : pool) t.join();

  goalrec::serve::FaultInjector::Counters faults = injector.counters();
  auto failure = [&registry](const char* reason) {
    return registry
        .GetCounter("goalrec_reload_failure_total", {{"reason", reason}},
                    "Rejected reload candidates, by guard stage")
        ->Value();
  };
  const double p99 = PercentileMs(recovery_ms, 0.99);
  const bool budget_ok = recovery_ms.empty() || p99 <= budget_ms;
  const bool invariants_hold = torn_served.load() == 0 &&
                               unexpected_accepts == 0 &&
                               unexpected_rejects == 0 &&
                               rollback_violations == 0 &&
                               always_recovered && budget_ok;

  std::printf(
      "{\n  \"benchmark\": \"chaos_reload\", \"mode\": \"delta\", "
      "\"smoke\": %s,\n",
      smoke ? "true" : "false");
  std::printf(
      "  \"epochs\": %lld, \"segment_publishes\": %lld, "
      "\"faulted_publishes\": %lld, \"compactions\": %lld, "
      "\"faulted_compactions\": %lld,\n",
      static_cast<long long>(epochs),
      static_cast<long long>(segment_publishes),
      static_cast<long long>(faulted_publishes),
      static_cast<long long>(compactions),
      static_cast<long long>(faulted_compactions));
  std::printf(
      "  \"faults_injected\": {\"truncate\": %llu, \"bitflip\": %llu, "
      "\"partial_write\": %llu, \"rename_delays\": %llu},\n",
      static_cast<unsigned long long>(faults.fs_truncations),
      static_cast<unsigned long long>(faults.fs_bitflips),
      static_cast<unsigned long long>(faults.fs_partial_writes),
      static_cast<unsigned long long>(faults.rename_delays));
  std::printf(
      "  \"reload_failure_total\": {\"load\": %lld, \"delta\": %lld, "
      "\"compact\": %lld, \"validate\": %lld, \"canary\": %lld},\n",
      static_cast<long long>(failure("load")),
      static_cast<long long>(failure("delta")),
      static_cast<long long>(failure("compact")),
      static_cast<long long>(failure("validate")),
      static_cast<long long>(failure("canary")));
  std::printf(
      "  \"queries\": %lld, \"torn_views_served\": %lld, "
      "\"unexpected_accepts\": %lld, \"unexpected_rejects\": %lld, "
      "\"rollback_violations\": %lld,\n",
      static_cast<long long>(queries_total.load()),
      static_cast<long long>(torn_served.load()),
      static_cast<long long>(unexpected_accepts),
      static_cast<long long>(unexpected_rejects),
      static_cast<long long>(rollback_violations));
  std::printf(
      "  \"recovery_ms\": {\"samples\": %zu, \"p50\": %.2f, \"p99\": %.2f, "
      "\"budget\": %.0f, \"within_budget\": %s},\n",
      recovery_ms.size(), PercentileMs(recovery_ms, 0.50), p99, budget_ms,
      budget_ok ? "true" : "false");
  std::printf("  \"always_recovered\": %s, \"invariants_hold\": %s\n}\n",
              always_recovered ? "true" : "false",
              invariants_hold ? "true" : "false");

  std::error_code cleanup_ec;
  std::filesystem::remove_all(dir, cleanup_ec);
  return invariants_hold ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  if (flags.GetString("mode", "snapshot") == "delta") {
    return RunDeltaMode(flags);
  }
  const bool smoke = flags.Get<bool>("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 41));
  const int64_t epochs = flags.Get<int64_t>("epochs", smoke ? 60 : 400);
  const int threads = flags.Get<int>("threads", 4);

  // Small library: the interesting work is reload churn, not query cost.
  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 2000 : 10000;
  workload.num_actions = smoke ? 500 : 2000;
  workload.implementation_size = 6;
  goalrec::model::ImplementationLibrary base =
      goalrec::eval::BuildScalingLibrary(workload, seed);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("goalrec_chaos_" + std::to_string(static_cast<long>(::getpid()))))
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/library.snap";

  // Epoch 0 is the initial good snapshot, written atomically.
  goalrec::model::ImplementationLibrary epoch0 = MakeEpochLibrary(base, 0);
  if (!goalrec::model::SaveSnapshot(epoch0, path).ok()) {
    std::fprintf(stderr, "cannot write initial snapshot\n");
    return 1;
  }
  // good_epochs[e]: the writer completed a clean publish of epoch e, so
  // serving it is legal. Sized up front; flags flip true before the clean
  // bytes hit disk (never after the reload), so there is no window where a
  // legally-served epoch reads as torn.
  std::vector<std::atomic<bool>> good_epochs(
      static_cast<size_t>(epochs) + 2);
  good_epochs[0].store(true);

  auto initial = goalrec::model::LoadLibrarySnapshot(path);
  if (!initial.ok()) {
    std::fprintf(stderr, "initial load failed: %s\n",
                 initial.status().ToString().c_str());
    return 1;
  }
  goalrec::obs::MetricRegistry registry;
  goalrec::serve::ReloadGuardOptions guard;
  guard.validate = true;
  guard.canary_probes = {{base.actions().Name(0), base.actions().Name(1)}};
  goalrec::serve::SnapshotManager manager(std::move(initial).value(),
                                          BreadthLadder, guard, &registry);
  goalrec::serve::EngineOptions engine_options;
  engine_options.metrics = &registry;
  goalrec::serve::ServingEngine engine(&manager, engine_options);

  goalrec::serve::FaultInjectionOptions fault_options;
  fault_options.seed = seed + 1;
  fault_options.fs_truncate_rate = 0.2;
  fault_options.fs_bitflip_rate = 0.2;
  fault_options.fs_partial_write_rate = 0.2;
  fault_options.fs_rename_delay_rate = 0.1;
  fault_options.fs_rename_delay_ms = 1;
  goalrec::serve::FaultInjector injector(fault_options);

  // Query threads: closed loop for the writer's whole run, checking the
  // served-epoch invariant on every query.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries_total{0};
  std::atomic<int64_t> torn_served{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const goalrec::serve::ServingSnapshot> snapshot =
            manager.Acquire();
        int64_t epoch = EpochOf(snapshot->library->library);
        if (epoch < 0 ||
            epoch >= static_cast<int64_t>(good_epochs.size()) ||
            !good_epochs[static_cast<size_t>(epoch)].load(
                std::memory_order_relaxed)) {
          torn_served.fetch_add(1, std::memory_order_relaxed);
        }
        goalrec::model::Activity activity = MakeActivity(
            snapshot->library->library.num_actions(),
            seed + static_cast<uint64_t>(t) * 1000003 + q++);
        (void)engine.Serve(activity, 10);
        queries_total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The chaos writer: per epoch, publish (often corrupted) bytes
  // non-atomically, reload, and verify the guard's verdict matches the
  // fault. After every rejected reload, republish clean and require
  // convergence.
  int64_t clean_publishes = 0;
  int64_t faulted_publishes = 0;
  int64_t unexpected_accepts = 0;
  int64_t unexpected_rejects = 0;
  int64_t rollback_violations = 0;
  bool always_recovered = true;
  std::vector<double> recovery_ms;
  int64_t last_good = 0;

  for (int64_t e = 1; e <= epochs; ++e) {
    goalrec::model::ImplementationLibrary lib = MakeEpochLibrary(base, e);
    const std::string clean_bytes = goalrec::model::EncodeSnapshot(lib);
    std::string staged = clean_bytes;
    const std::string old_bytes = ReadFileOrEmpty(path);
    goalrec::serve::FsFault fault =
        injector.MaybeCorruptBytes(&staged, old_bytes);

    const bool corrupted = fault != goalrec::serve::FsFault::kNone &&
                           staged != old_bytes && staged != clean_bytes;
    if (!corrupted) {
      // Clean bytes (or a "torn" write that left a complete old/new file):
      // mark good before disk so a concurrent acquire is never flagged.
      good_epochs[static_cast<size_t>(e)].store(true);
    } else {
      ++faulted_publishes;
    }
    std::this_thread::sleep_for(injector.MaybeRenameDelay());
    if (!OverwriteRaw(path, staged)) {
      std::fprintf(stderr, "publish write failed\n");
      return 1;
    }

    Clock::time_point fault_start = Clock::now();
    bool ok = manager.ReloadFromFile(path).ok();
    if (corrupted) {
      if (ok) {
        // A corrupted byte stream loaded: the CRC framing failed its one
        // job (or the corruption produced byte-identical content).
        ++unexpected_accepts;
      } else {
        // Rollback check: the rejected candidate must not have disturbed
        // the serving snapshot.
        if (EpochOf(manager.Acquire()->library->library) != last_good) {
          ++rollback_violations;
        }
        // Converge: republish the same epoch cleanly, atomically this time.
        good_epochs[static_cast<size_t>(e)].store(true);
        bool recovered =
            goalrec::model::SaveSnapshot(lib, path).ok() &&
            manager.ReloadFromFile(path).ok();
        if (recovered) {
          recovery_ms.push_back(
              static_cast<double>((Clock::now() - fault_start).count()) /
              1e6);
          last_good = e;
        } else {
          always_recovered = false;
        }
      }
    } else {
      ++clean_publishes;
      if (!ok) {
        // A clean, complete snapshot must always publish. (A torn write
        // that restored the old file loads the old epoch — also ok=true.)
        ++unexpected_rejects;
      }
      int64_t served = EpochOf(manager.Acquire()->library->library);
      if (served == e || staged != clean_bytes) {
        last_good = served;
      }
    }
  }
  stop.store(true);
  for (std::thread& t : pool) t.join();

  goalrec::serve::FaultInjector::Counters faults = injector.counters();
  auto failure = [&registry](const char* reason) {
    return registry
        .GetCounter("goalrec_reload_failure_total", {{"reason", reason}},
                    "Rejected reload candidates, by guard stage")
        ->Value();
  };

  const bool invariants_hold = torn_served.load() == 0 &&
                               unexpected_accepts == 0 &&
                               unexpected_rejects == 0 &&
                               rollback_violations == 0 && always_recovered;
  std::printf("{\n  \"benchmark\": \"chaos_reload\", \"smoke\": %s,\n",
              smoke ? "true" : "false");
  std::printf(
      "  \"epochs\": %lld, \"clean_publishes\": %lld, "
      "\"faulted_publishes\": %lld,\n",
      static_cast<long long>(epochs), static_cast<long long>(clean_publishes),
      static_cast<long long>(faulted_publishes));
  std::printf(
      "  \"faults_injected\": {\"truncate\": %llu, \"bitflip\": %llu, "
      "\"partial_write\": %llu, \"rename_delays\": %llu},\n",
      static_cast<unsigned long long>(faults.fs_truncations),
      static_cast<unsigned long long>(faults.fs_bitflips),
      static_cast<unsigned long long>(faults.fs_partial_writes),
      static_cast<unsigned long long>(faults.rename_delays));
  std::printf(
      "  \"reload_failure_total\": {\"load\": %lld, \"ladder\": %lld, "
      "\"validate\": %lld, \"canary\": %lld},\n",
      static_cast<long long>(failure("load")),
      static_cast<long long>(failure("ladder")),
      static_cast<long long>(failure("validate")),
      static_cast<long long>(failure("canary")));
  std::printf(
      "  \"queries\": %lld, \"torn_snapshots_served\": %lld, "
      "\"unexpected_accepts\": %lld, \"unexpected_rejects\": %lld, "
      "\"rollback_violations\": %lld,\n",
      static_cast<long long>(queries_total.load()),
      static_cast<long long>(torn_served.load()),
      static_cast<long long>(unexpected_accepts),
      static_cast<long long>(unexpected_rejects),
      static_cast<long long>(rollback_violations));
  std::printf(
      "  \"recovery_ms\": {\"samples\": %zu, \"p50\": %.2f, \"p99\": %.2f},\n",
      recovery_ms.size(), PercentileMs(recovery_ms, 0.50),
      PercentileMs(recovery_ms, 0.99));
  std::printf("  \"always_recovered\": %s, \"invariants_hold\": %s\n}\n",
              always_recovered ? "true" : "false",
              invariants_hold ? "true" : "false");

  std::error_code cleanup_ec;
  std::filesystem::remove_all(dir, cleanup_ec);
  return invariants_hold ? 0 : 1;
}
