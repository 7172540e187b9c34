#ifndef GOALREC_SERVE_SHARDED_H_
#define GOALREC_SERVE_SHARDED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/best_match.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
#include "core/strategy.h"
#include "model/sharding.h"
#include "obs/metrics.h"
#include "serve/snapshot_manager.h"
#include "util/thread_pool.h"

// Sharded query serving: fan a query out across the per-shard libraries of
// a model::ShardedSnapshot, run the shard-local strategy kernels, and
// recombine the per-shard partials at the root (core/shard_merge.h) into
// the exact list the unsharded strategy would produce — bit for bit, under
// the global (score desc, logical id asc) tie order.
//
// A ShardedRecommender IS a core::Recommender, so it slots into the
// serving engine's degradation ladder unchanged: deadlines, admission
// control and circuit breakers all operate per QUERY at the engine, never
// per shard. The shard fan-out happens inside one rung attempt; every shard
// kernel polls a per-shard COPY of the engine's StopToken (same deadline,
// private poll counters — the token's poll state is single-thread by
// contract) and the root merge polls the original, so a deadline stops the
// whole fan (the root always joins its shard tasks before returning —
// partial shard buffers are discarded with the rung attempt, never merged
// into a served answer).
//
// MakeShardedLadderFactory is the one serving ladder factory. Its default
// of one shard builds no ShardedRecommender at all: the rungs are the plain
// kernels. On a 4-core host the fan-out cut the latency of a lone query but
// lost closed-loop throughput at every library size measured, 100k to 2M
// implementations (BENCH_overload.json).
//
// See docs/serving.md ("Sharded serving") for the full design.

namespace goalrec::serve {

/// The benchmark driver (perfbench/goalrec_bench.cc) still spells the
/// strategy type by this name; everything else uses core::Strategy.
using ShardedStrategy = core::Strategy;

class ShardedRecommender : public core::Recommender {
 public:
  /// Serves `strategy` over `sharded` (co-owned; its base library must stay
  /// alive, which ServingSnapshot guarantees in the serving path). With a
  /// `pool`, shard kernels run as pool tasks with the calling thread taking
  /// shard 0 inline; without one the fan-out degenerates to a sequential
  /// loop (same results — the merge is order-free by construction).
  /// Root merge time is observed into `merge_latency_us` when given.
  ShardedRecommender(std::shared_ptr<const model::ShardedSnapshot> sharded,
                     core::Strategy strategy,
                     util::ThreadPool* pool = nullptr,
                     core::BestMatchOptions best_match_options = {},
                     obs::Histogram* merge_latency_us = nullptr);
  ~ShardedRecommender() override;

  /// Same names as the unsharded strategies ("Focus_cmp", "Breadth", ...):
  /// sharding is a serving topology, not a different strategy, and ladder
  /// rung names must stay stable across sharded and unsharded deployments.
  std::string name() const override;

  /// RecommendPooled with a fresh root workspace.
  core::RecommendationList Recommend(const model::Activity& activity,
                                     size_t k) const override;

  /// The one execution path: `workspace` is the ROOT workspace (merge
  /// buffers, final top-k, summed kernel stats; a fresh one when null);
  /// per-shard workspaces come from this recommender's warm scratch pool,
  /// so the steady-state fan-out performs no allocations.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop,
                       core::QueryWorkspace* workspace,
                       core::RecommendationList& out) const override;

  const model::ShardedSnapshot& sharded() const { return *sharded_; }
  core::Strategy strategy() const { return strategy_; }

 private:
  struct FanoutScratch;
  class ScratchLease;

  ScratchLease Acquire() const;
  /// Runs body(0..num_shards-1): shards 1.. as pool tasks, shard 0 inline on
  /// the calling thread, then joins. Join is unconditional (RAII) — a body
  /// that throws or stops early never leaves a task referencing dead scratch.
  void RunPhase(FanoutScratch& scratch,
                const std::function<void(size_t)>& body) const;
  void ServeSharded(util::IdSpan normalized, size_t k,
                    const util::StopToken* stop, core::QueryWorkspace& root_ws,
                    FanoutScratch& scratch,
                    core::RecommendationList& out) const;
  /// Shard `s`'s kernel as the strategy's concrete type.
  template <typename Kernel>
  const Kernel& kernel(size_t s) const {
    return static_cast<const Kernel&>(*kernels_[s]);
  }

  std::shared_ptr<const model::ShardedSnapshot> sharded_;
  core::Strategy strategy_;
  util::ThreadPool* pool_;
  obs::Histogram* merge_latency_us_;
  /// One strategy kernel per shard library. Best Match holds one more, over
  /// the base library, for the root's read-off.
  std::vector<std::unique_ptr<const core::Recommender>> kernels_;

  /// Warm fan-out scratch pool (per-shard workspaces + partial buffers),
  /// grown on demand by concurrent queries, never shrunk.
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<FanoutScratch>> scratch_free_;
};

/// Options for the serving ladder.
struct ShardedLadderOptions {
  /// 1 (the default) serves the plain strategy kernels over the library;
  /// more partitions it and fans every query out.
  uint32_t num_shards = 1;
  /// Shard fan-out pool; null serves each shard sequentially on the query
  /// thread. Unused at one shard.
  util::ThreadPool* pool = nullptr;
  /// Registry for goalrec_shard_merge_latency_us (registered only when
  /// num_shards > 1); default registry if null.
  obs::MetricRegistry* metrics = nullptr;
  /// Strategy rungs, best first, each named by its key ("best_match"). The
  /// unsharded popularity floor is always appended underneath.
  std::vector<core::Strategy> rungs = {core::Strategy::kBestMatch,
                                       core::Strategy::kBreadth};
};

/// The serving LadderFactory for SnapshotManager: the standard ladder —
/// best_match → breadth → popularity by default. At one shard the strategy
/// rungs are the core kernels over the served library: no partition, no
/// ShardedSnapshot (ServingSnapshot::sharded stays null), no fan-out. At
/// more, every (re)load re-partitions the new library, the strategy rungs
/// are ShardedRecommenders, and the ShardedSnapshot rides on the
/// ServingSnapshot, so a snapshot swap replaces ALL shards atomically:
/// queries hold either the old complete shard set or the new one, never a
/// mix. The popularity floor is never sharded (it is a precomputed list;
/// fan-out would add cost, not shed it).
LadderFactory MakeShardedLadderFactory(ShardedLadderOptions options = {});

/// Exports per-shard gauges through the registry scrape-hook path:
///   goalrec_shard_count                — shards in the serving snapshot
///   goalrec_shard_impls{shard="i"}     — implementations on shard i
/// `provider` is called at scrape time (typically wrapping
/// SnapshotManager::Acquire) and may return null (gauges untouched — e.g.
/// an unsharded deployment). The hook is removed in the destructor.
class ShardStatsExporter {
 public:
  using Provider =
      std::function<std::shared_ptr<const model::ShardedSnapshot>()>;

  ShardStatsExporter(obs::MetricRegistry* registry, Provider provider);
  ~ShardStatsExporter();

  ShardStatsExporter(const ShardStatsExporter&) = delete;
  ShardStatsExporter& operator=(const ShardStatsExporter&) = delete;

 private:
  obs::MetricRegistry* registry_;
  Provider provider_;
  uint64_t hook_id_ = 0;
};

}  // namespace goalrec::serve

#endif  // GOALREC_SERVE_SHARDED_H_
