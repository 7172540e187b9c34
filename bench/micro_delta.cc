// Delta-segment benchmark for the incremental data plane (single JSON
// document on stdout; recorded runs, before and after the deferred fold, in
// BENCH_delta.json):
//
//   1. Mutation throughput, writer only: DeltaLog::Append wall time
//      (validate + encode + fsync'd atomic publish; the writer never reads
//      the merged library, so it never folds) over a sustained append
//      stream with periodic tombstones, plus Compact() cost at the end of
//      the stream — the price of folding the chain back into a base.
//   2. Update size: one appended implementation costs a ~hundred-byte
//      ".sdelta" segment instead of a full base republish. The bench
//      gates on the delta being at least 10x smaller than the base
//      snapshot — the whole point of the format — and exits non-zero if a
//      "delta" ever approaches base size.
//   3. Update-under-query-load: closed-loop query threads against a
//      snapshot-mode ServingEngine while a writer appends through a
//      DeltaLog and a polling reader republishes via
//      SnapshotManager::ReloadFromDeltaLog (the full production pipeline:
//      append -> poll -> fold -> guarded swap). Reports sustained
//      updates/sec, end-to-end publish latency, and query p50/p99 with
//      and without concurrent mutation.
//   4. Publish split, outside in: the stages of one publish timed one by
//      one from outside on the sharded serving ladder — poll (read and
//      CRC-check the new segment), fold (the merged library), snapshot
//      (the fold's shared snapshot, which the publish serves as is),
//      ladder (re-partition and recommenders) and guard (ValidateLibrary)
//      — beside the whole ReloadFromDeltaLog on a second reader of the
//      same chain. `other` is the publish time the stages do not cover
//      (swap, bookkeeping, freeing the old snapshot). It runs on the 10k
//      library at 4 shards, then at perfbench reload_delta's shape: 100k
//      implementations over 2k actions, segments of 4 appends and 2
//      tombstones, at 1 and at 4 shards (--smoke: 25k implementations, just
//      above the parallel cut-off).
//
// Flags: --smoke (small library, short sweep; CI), --seed, --updates,
// --threads.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/breadth.h"
#include "eval/scaling.h"
#include "model/delta.h"
#include "model/delta_log.h"
#include "model/snapshot.h"
#include "model/snapshot_io.h"
#include "model/validate.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/sharded.h"
#include "serve/snapshot_manager.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t index = static_cast<size_t>(p * static_cast<double>(samples.size()));
  index = std::min(index, samples.size() - 1);
  return samples[index];
}

double MsSince(Clock::time_point start) {
  return static_cast<double>((Clock::now() - start).count()) / 1e6;
}

goalrec::model::DeltaOps MakeOps(const goalrec::model::ImplementationLibrary&
                                     base,
                                 goalrec::util::Rng& rng, int64_t update,
                                 uint32_t logical_rows) {
  goalrec::model::DeltaOps ops;
  goalrec::model::DeltaImplementation impl;
  impl.goal = "delta goal " + std::to_string(update);
  for (int a = 0; a < 4; ++a) {
    impl.actions.push_back(
        base.actions().Name(rng.UniformUint32(base.num_actions())));
  }
  ops.appended.push_back(std::move(impl));
  if (logical_rows > 2 && rng.Bernoulli(0.3)) {
    ops.tombstoned_impls.push_back(rng.UniformUint32(logical_rows / 2));
  }
  return ops;
}

/// A segment shaped like perfbench reload_delta's: four appended
/// implementations of six actions each and two tombstoned base rows.
goalrec::model::DeltaOps MakeReloadOps(
    const goalrec::model::ImplementationLibrary& base,
    goalrec::util::Rng& rng, int64_t update) {
  goalrec::model::DeltaOps ops;
  for (int j = 0; j < 4; ++j) {
    goalrec::model::DeltaImplementation impl;
    impl.goal = "reload goal " + std::to_string(update) + "/" +
                std::to_string(j / 2);
    for (uint32_t id : rng.SampleWithoutReplacement(base.num_actions(), 6)) {
      impl.actions.push_back(base.actions().Name(id));
    }
    ops.appended.push_back(std::move(impl));
  }
  for (int j = 0; j < 2; ++j) {
    ops.tombstoned_impls.push_back(
        rng.UniformUint32(base.num_implementations()));
  }
  return ops;
}

enum Stage { kPoll, kFold, kSnapshot, kLadder, kGuard, kStages, kPublish };
constexpr const char* kStageNames[] = {"poll",  "fold",   "snapshot",
                                       "ladder", "guard", "stages",
                                       "publish"};

/// Section 4 on a fresh delta directory at `dir` over `base`: `updates`
/// publishes of `make_ops` segments, compacting every `compact_every`.
/// Returns each stage's median (ms), in Stage order, then `other`; empty
/// on a failed publish.
template <typename MakeOps>
std::vector<double> PublishSplit(
    const goalrec::model::ImplementationLibrary& base, const std::string& dir,
    uint32_t shards, int64_t updates, int64_t compact_every,
    MakeOps make_ops) {
  std::filesystem::remove_all(dir);
  auto created = goalrec::model::DeltaLog::Create(dir, base);
  if (!created.ok()) return {};
  goalrec::model::DeltaLog writer = std::move(created).value();
  goalrec::model::DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  auto opened = goalrec::model::DeltaLog::Open(dir, reader_options);
  if (!opened.ok()) return {};
  goalrec::model::DeltaLog staged = std::move(opened).value();
  opened = goalrec::model::DeltaLog::Open(dir, reader_options);
  if (!opened.ok()) return {};
  goalrec::model::DeltaLog whole = std::move(opened).value();

  goalrec::obs::MetricRegistry registry;
  goalrec::serve::ShardedLadderOptions ladder_options;
  ladder_options.num_shards = shards;
  ladder_options.metrics = &registry;
  const goalrec::serve::LadderFactory ladder =
      goalrec::serve::MakeShardedLadderFactory(ladder_options);
  goalrec::serve::SnapshotManager manager(
      goalrec::model::MakeSnapshot(whole.library(), dir), ladder, &registry);

  std::vector<std::vector<double>> split(std::size(kStageNames));
  for (int64_t u = 0; u < updates; ++u) {
    if (!writer.Append(make_ops(writer, u)).ok()) return {};

    Clock::time_point start = Clock::now();
    if (!staged.Poll().ok()) return {};
    split[kPoll].push_back(MsSince(start));
    Clock::time_point at = Clock::now();
    const goalrec::model::ImplementationLibrary& folded = staged.library();
    split[kFold].push_back(MsSince(at));
    at = Clock::now();
    std::shared_ptr<const goalrec::model::LibrarySnapshot> snapshot =
        staged.snapshot();
    split[kSnapshot].push_back(MsSince(at));
    at = Clock::now();
    goalrec::serve::ServingSnapshot serving;
    serving.library = snapshot;
    ladder(snapshot->library, serving);
    split[kLadder].push_back(MsSince(at));
    at = Clock::now();
    if (!goalrec::model::ValidateLibrary(folded).ok()) return {};
    split[kGuard].push_back(MsSince(at));
    split[kStages].push_back(MsSince(start));

    at = Clock::now();
    if (!manager.ReloadFromDeltaLog(whole).ok()) return {};
    split[kPublish].push_back(MsSince(at));

    if ((u + 1) % compact_every == 0) {
      if (!writer.Compact().ok()) return {};
      if (!staged.Poll().ok()) return {};
      if (!manager.ReloadFromDeltaLog(whole).ok()) return {};
    }
  }
  std::vector<double> p50;
  for (const std::vector<double>& samples : split) {
    p50.push_back(Percentile(samples, 0.50));
  }
  p50.push_back(p50[kPublish] - p50[kStages]);
  return p50;
}

void PrintSplit(const std::vector<double>& p50) {
  std::printf("{");
  for (size_t stage = 0; stage < std::size(kStageNames); ++stage) {
    std::printf("\"%s\": %.3f, ", kStageNames[stage], p50[stage]);
  }
  std::printf("\"other\": %.3f}", p50.back());
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

}  // namespace

int main(int argc, char** argv) {
  goalrec::util::FlagParser flags(argc, argv);
  const bool smoke = flags.Get<bool>("smoke", false);
  const uint64_t seed = static_cast<uint64_t>(flags.Get<int64_t>("seed", 47));
  const int64_t updates = flags.Get<int64_t>("updates", smoke ? 100 : 1000);
  const int threads = flags.Get<int>("threads", 4);
  const int64_t compact_every = 50;

  goalrec::eval::ScalingWorkload workload;
  workload.num_implementations = smoke ? 2000 : 10000;
  workload.num_actions = smoke ? 500 : 2000;
  workload.implementation_size = 6;
  goalrec::model::ImplementationLibrary base =
      goalrec::eval::BuildScalingLibrary(workload, seed);
  const size_t base_snapshot_bytes =
      goalrec::model::EncodeSnapshot(base).size();

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("goalrec_micro_delta_" +
        std::to_string(static_cast<long>(::getpid()))))
          .string();
  std::filesystem::remove_all(dir);

  // --- 1. Writer-only mutation throughput -----------------------------------
  goalrec::util::StatusOr<goalrec::model::DeltaLog> created =
      goalrec::model::DeltaLog::Create(dir, base);
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  goalrec::model::DeltaLog writer = std::move(created).value();
  goalrec::util::Rng rng(seed, /*stream=*/1);

  std::vector<double> append_ms;
  append_ms.reserve(static_cast<size_t>(updates));
  size_t max_segment_bytes = 0;
  Clock::time_point stream_start = Clock::now();
  for (int64_t u = 0; u < updates; ++u) {
    goalrec::model::DeltaOps ops = MakeOps(
        base, rng, u, writer.stats().view.live_implementations);
    Clock::time_point start = Clock::now();
    if (!writer.Append(ops).ok()) {
      std::fprintf(stderr, "append %lld failed\n",
                   static_cast<long long>(u));
      return 1;
    }
    append_ms.push_back(MsSince(start));
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(
        writer.SegmentPath(writer.view().next_chain_seq() - 1), ec);
    if (!ec) max_segment_bytes = std::max(max_segment_bytes, size);
    if ((u + 1) % compact_every == 0 && !writer.Compact().ok()) {
      std::fprintf(stderr, "compact failed\n");
      return 1;
    }
  }
  const double stream_seconds =
      static_cast<double>((Clock::now() - stream_start).count()) / 1e9;
  Clock::time_point compact_start = Clock::now();
  if (!writer.Compact().ok()) return 1;
  const double final_compact_ms = MsSince(compact_start);
  const double appends_per_sec =
      stream_seconds > 0 ? static_cast<double>(updates) / stream_seconds
                         : 0.0;

  // --- 2. Update size gate ---------------------------------------------------
  // A single-implementation delta must stay far below a base republish;
  // 10x is a loose floor (real ratios are 3-4 orders of magnitude).
  const bool size_gate_ok =
      max_segment_bytes > 0 && max_segment_bytes * 10 < base_snapshot_bytes;

  // --- 3. Updates under query load ------------------------------------------
  std::filesystem::remove_all(dir);
  created = goalrec::model::DeltaLog::Create(dir, base);
  if (!created.ok()) return 1;
  goalrec::model::DeltaLog loaded_writer = std::move(created).value();
  goalrec::model::DeltaLogOptions reader_options;
  reader_options.remove_stale_segments = false;
  goalrec::util::StatusOr<goalrec::model::DeltaLog> opened =
      goalrec::model::DeltaLog::Open(dir, reader_options);
  if (!opened.ok()) return 1;
  goalrec::model::DeltaLog reader = std::move(opened).value();

  goalrec::obs::MetricRegistry registry;
  goalrec::serve::SnapshotManager manager(
      goalrec::model::MakeSnapshot(reader.library(), dir), BreadthLadder,
      &registry);
  goalrec::serve::EngineOptions engine_options;
  engine_options.metrics = &registry;
  goalrec::serve::ServingEngine engine(&manager, engine_options);

  std::atomic<bool> stop{false};
  std::atomic<bool> mutating{false};
  std::vector<std::vector<double>> quiet_samples(
      static_cast<size_t>(threads));
  std::vector<std::vector<double>> busy_samples(
      static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      uint64_t q = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        goalrec::model::Activity activity = MakeActivity(
            base.num_actions(),
            seed + static_cast<uint64_t>(t) * 1000003 + q++);
        Clock::time_point start = Clock::now();
        (void)engine.Serve(activity, 10);
        double ms = MsSince(start);
        auto& bucket = mutating.load(std::memory_order_relaxed)
                           ? busy_samples[static_cast<size_t>(t)]
                           : quiet_samples[static_cast<size_t>(t)];
        if (bucket.size() < 200000) bucket.push_back(ms);
      }
    });
  }

  // Quiet baseline, then the mutation storm through the full pipeline.
  std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 100 : 500));
  mutating.store(true);
  goalrec::util::Rng load_rng(seed, /*stream=*/2);
  std::vector<double> publish_ms;
  publish_ms.reserve(static_cast<size_t>(updates));
  Clock::time_point load_start = Clock::now();
  for (int64_t u = 0; u < updates; ++u) {
    goalrec::model::DeltaOps ops =
        MakeOps(base, load_rng, u,
                loaded_writer.stats().view.live_implementations);
    Clock::time_point start = Clock::now();
    if (!loaded_writer.Append(ops).ok()) return 1;
    goalrec::util::StatusOr<uint64_t> polled =
        manager.ReloadFromDeltaLog(reader);
    if (!polled.ok()) {
      std::fprintf(stderr, "reload failed: %s\n",
                   polled.status().ToString().c_str());
      return 1;
    }
    publish_ms.push_back(MsSince(start));
    if ((u + 1) % compact_every == 0) {
      if (!loaded_writer.Compact().ok()) return 1;
      if (!manager.ReloadFromDeltaLog(reader).ok()) return 1;
    }
  }
  const double load_seconds =
      static_cast<double>((Clock::now() - load_start).count()) / 1e9;
  mutating.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(smoke ? 100 : 500));
  stop.store(true);
  for (std::thread& t : pool) t.join();

  std::vector<double> quiet, busy;
  for (auto& s : quiet_samples) quiet.insert(quiet.end(), s.begin(), s.end());
  for (auto& s : busy_samples) busy.insert(busy.end(), s.begin(), s.end());
  const double updates_per_sec_loaded =
      load_seconds > 0 ? static_cast<double>(updates) / load_seconds : 0.0;

  // --- 4. Publish split, outside in -----------------------------------------
  constexpr uint32_t kSplitShards = 4;
  goalrec::util::Rng split_rng(seed, /*stream=*/3);
  const std::vector<double> split = PublishSplit(
      base, dir, kSplitShards, updates, compact_every,
      [&](const goalrec::model::DeltaLog& writer, int64_t u) {
        return MakeOps(base, split_rng, u,
                       writer.stats().view.live_implementations);
      });
  if (split.empty()) return 1;

  // The same split at perfbench reload_delta's shape.
  goalrec::eval::ScalingWorkload reload_workload;
  reload_workload.num_implementations = smoke ? 25000 : 100000;
  reload_workload.num_actions = 2000;
  reload_workload.implementation_size = 6;
  const goalrec::model::ImplementationLibrary reload_base =
      goalrec::eval::BuildScalingLibrary(reload_workload, seed);
  const int64_t reload_updates = smoke ? 10 : 120;
  constexpr uint32_t kReloadShardCounts[] = {1, 4};
  std::vector<std::vector<double>> reload_split;
  for (uint32_t shards : kReloadShardCounts) {
    goalrec::util::Rng reload_rng(seed, /*stream=*/4);
    reload_split.push_back(PublishSplit(
        reload_base, dir, shards, reload_updates, /*compact_every=*/8,
        [&](const goalrec::model::DeltaLog&, int64_t u) {
          return MakeReloadOps(reload_base, reload_rng, u);
        }));
    if (reload_split.back().empty()) return 1;
  }

  const bool ok = size_gate_ok;
  std::printf("{\n  \"benchmark\": \"micro_delta\", \"smoke\": %s,\n",
              smoke ? "true" : "false");
  std::printf(
      "  \"library\": {\"implementations\": %u, \"actions\": %u, "
      "\"base_snapshot_bytes\": %zu},\n",
      base.num_implementations(), base.num_actions(), base_snapshot_bytes);
  std::printf(
      "  \"writer_only\": {\"updates\": %lld, \"appends_per_sec\": %.0f, "
      "\"append_ms\": {\"p50\": %.3f, \"p99\": %.3f}, "
      "\"final_compact_ms\": %.2f},\n",
      static_cast<long long>(updates), appends_per_sec,
      Percentile(append_ms, 0.50), Percentile(append_ms, 0.99),
      final_compact_ms);
  std::printf(
      "  \"update_size\": {\"max_segment_bytes\": %zu, "
      "\"base_to_delta_ratio\": %.0f, \"gate_10x_ok\": %s},\n",
      max_segment_bytes,
      max_segment_bytes > 0
          ? static_cast<double>(base_snapshot_bytes) /
                static_cast<double>(max_segment_bytes)
          : 0.0,
      size_gate_ok ? "true" : "false");
  std::printf(
      "  \"under_query_load\": {\"updates_per_sec\": %.0f, "
      "\"publish_ms\": {\"p50\": %.3f, \"p99\": %.3f},\n",
      updates_per_sec_loaded, Percentile(publish_ms, 0.50),
      Percentile(publish_ms, 0.99));
  std::printf(
      "    \"query_ms_quiet\": {\"samples\": %zu, \"p50\": %.3f, "
      "\"p99\": %.3f},\n",
      quiet.size(), Percentile(quiet, 0.50), Percentile(quiet, 0.99));
  std::printf(
      "    \"query_ms_mutating\": {\"samples\": %zu, \"p50\": %.3f, "
      "\"p99\": %.3f}},\n",
      busy.size(), Percentile(busy, 0.50), Percentile(busy, 0.99));
  std::printf(
      "  \"publish_split\": {\"updates\": %lld, \"shards\": %u, "
      "\"p50_ms\": ",
      static_cast<long long>(updates), kSplitShards);
  PrintSplit(split);
  std::printf("},\n");
  std::printf(
      "  \"publish_split_reload_shape\": {\"implementations\": %u, "
      "\"actions\": %u, \"updates\": %lld, \"p50_ms\": {",
      reload_base.num_implementations(), reload_base.num_actions(),
      static_cast<long long>(reload_updates));
  for (size_t i = 0; i < std::size(kReloadShardCounts); ++i) {
    std::printf("%s\"%u_shards\": ", i == 0 ? "" : ", ",
                kReloadShardCounts[i]);
    PrintSplit(reload_split[i]);
  }
  std::printf("}},\n");
  std::printf("  \"gates_ok\": %s\n}\n", ok ? "true" : "false");

  std::error_code cleanup_ec;
  std::filesystem::remove_all(dir, cleanup_ec);
  return ok ? 0 : 1;
}
