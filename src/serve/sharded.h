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
#include "core/breadth.h"
#include "core/focus.h"
#include "core/query_workspace.h"
#include "core/recommender.h"
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
// serving engine's degradation ladder unchanged: deadlines, cancellation,
// admission control and circuit breakers all operate per QUERY at the
// engine, never per shard. The shard fan-out happens inside one rung
// attempt; every shard kernel polls a per-shard COPY of the engine's
// StopToken (same deadline, same cancellation flag, private poll counters —
// the token's poll state is single-thread by contract) and the root merge
// polls the original, so a deadline cancels the whole fan (the root always
// joins its shard tasks before returning — partial shard buffers are
// discarded with the rung attempt, never merged into a served answer).
//
// See docs/serving.md ("Sharded serving") for the full design.

namespace goalrec::serve {

/// The four paper strategies, shard-served. Matches testing::OracleStrategy
/// case-for-case (serve/ cannot depend on testing/).
enum class ShardedStrategy {
  kFocusCompleteness,
  kFocusCloseness,
  kBreadth,
  kBestMatch,
};

class ShardedRecommender : public core::Recommender {
 public:
  /// Serves `strategy` over `sharded` (co-owned; its base library must stay
  /// alive, which ServingSnapshot guarantees in the serving path). With a
  /// `pool`, shard kernels run as pool tasks with the calling thread taking
  /// shard 0 inline; without one the fan-out degenerates to a sequential
  /// loop (same results — the merge is order-free by construction).
  /// `best_match_options` must not carry goal weights (sharding is exact
  /// only for the unweighted integer arithmetic; checked). Root merge time
  /// is observed into `merge_latency_us` when given.
  ShardedRecommender(std::shared_ptr<const model::ShardedSnapshot> sharded,
                     ShardedStrategy strategy,
                     util::ThreadPool* pool = nullptr,
                     core::BestMatchOptions best_match_options = {},
                     obs::Histogram* merge_latency_us = nullptr);
  ~ShardedRecommender() override;

  /// Same names as the unsharded strategies ("Focus_cmp", "Breadth", ...):
  /// sharding is a serving topology, not a different strategy, and ladder
  /// rung names must stay stable across sharded and unsharded deployments.
  std::string name() const override;

  core::RecommendationList Recommend(const model::Activity& activity,
                                     size_t k) const override;

  /// Allocating path: fresh shard workspaces per call, sequential fan-out.
  core::RecommendationList RecommendCancellable(
      const model::Activity& activity, size_t k,
      const util::StopToken* stop) const override;

  /// Serving path: `workspace` is the ROOT workspace (merge buffers, final
  /// top-k, summed kernel stats); per-shard workspaces come from this
  /// recommender's warm scratch pool, so the steady-state fan-out performs
  /// no allocations. Null `workspace` falls back to RecommendCancellable.
  void RecommendPooled(util::IdSpan activity, size_t k,
                       const util::StopToken* stop,
                       core::QueryWorkspace* workspace,
                       core::RecommendationList& out) const override;

  const model::ShardedSnapshot& sharded() const { return *sharded_; }
  ShardedStrategy strategy() const { return strategy_; }

 private:
  struct FanoutScratch;
  class ScratchLease;

  ScratchLease Acquire() const;
  /// Runs body(0..num_shards-1): shards 1.. as pool tasks, shard 0 inline on
  /// the calling thread, then joins. Join is unconditional (RAII) — a body
  /// that throws or stops early never leaves a task referencing dead scratch.
  void RunPhase(FanoutScratch& scratch, bool parallel,
                const std::function<void(size_t)>& body) const;
  void ServeSharded(util::IdSpan normalized, size_t k,
                    const util::StopToken* stop, core::QueryWorkspace& root_ws,
                    FanoutScratch& scratch, bool parallel,
                    core::RecommendationList& out) const;

  std::shared_ptr<const model::ShardedSnapshot> sharded_;
  ShardedStrategy strategy_;
  util::ThreadPool* pool_;
  core::BestMatchOptions best_match_options_;
  obs::Histogram* merge_latency_us_;
  /// Per-shard kernel instances; only the vector matching strategy_ is
  /// populated. best_match_ holds one more, over the base library, for the
  /// root's read-off.
  std::vector<std::unique_ptr<core::FocusRecommender>> focus_;
  std::vector<std::unique_ptr<core::BreadthRecommender>> breadth_;
  std::vector<std::unique_ptr<core::BestMatchRecommender>> best_match_;

  /// Warm fan-out scratch pool (per-shard workspaces + partial buffers),
  /// grown on demand by concurrent queries, never shrunk.
  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<FanoutScratch>> scratch_free_;
};

/// Options for the sharded serving ladder.
struct ShardedLadderOptions {
  uint32_t num_shards = 2;
  model::ShardingOptions sharding;
  /// Shard fan-out pool; null serves each shard sequentially on the query
  /// thread.
  util::ThreadPool* pool = nullptr;
  /// Registry for goalrec_shard_merge_latency_us; default registry if null.
  obs::MetricRegistry* metrics = nullptr;
  /// Sharded strategy rungs, best first, as (rung name, strategy). The
  /// unsharded popularity floor is always appended underneath.
  std::vector<std::pair<std::string, ShardedStrategy>> rungs = {
      {"best_match", ShardedStrategy::kBestMatch},
      {"breadth", ShardedStrategy::kBreadth}};
};

/// LadderFactory for SnapshotManager producing the standard serving ladder
/// — best_match → breadth → popularity — with the two strategy rungs served
/// sharded. Every (re)load re-partitions the new library and stores the
/// ShardedSnapshot on the ServingSnapshot, so a snapshot swap replaces ALL
/// shards atomically: queries hold either the old complete shard set or the
/// new one, never a mix. The popularity floor stays unsharded (it is a
/// precomputed list; fan-out would add cost, not shed it).
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
