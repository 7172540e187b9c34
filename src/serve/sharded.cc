#include "serve/sharded.h"

#include <chrono>
#include <condition_variable>
#include <optional>
#include <utility>

#include "core/breadth.h"
#include "core/focus.h"
#include "core/shard_merge.h"
#include "serve/popularity_floor.h"
#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::serve {

// Per-query fan-out scratch: one workspace and one partial buffer per
// shard, plus the join state for one phase. Pooled and reused so the
// steady-state fan-out allocates nothing; buffers are indexed by shard id.
struct ShardedRecommender::FanoutScratch {
  std::vector<std::unique_ptr<core::QueryWorkspace>> shard_ws;
  std::vector<std::vector<core::ShardEmission>> emissions;
  std::vector<std::vector<core::ShardActionScore>> partials;
  std::vector<core::BestMatchShardProfile> profiles;
  // Per-shard copies of the query's StopToken. The token's strided poll
  // counter is deliberately non-atomic (its contract is "poll from one
  // thread at a time"), so the shard tasks must not share the engine's
  // per-query token; each copy observes the same deadline and the same
  // cancellation flag with private poll state.
  std::vector<util::StopToken> shard_stops;

  // Phase join state. `body` is stored here so the Submit lambdas capture
  // only (&scratch, index) — small enough for std::function's inline
  // buffer, keeping the per-task path allocation-free.
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;
  const std::function<void(size_t)>* body = nullptr;

  explicit FanoutScratch(uint32_t num_shards) {
    shard_ws.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      shard_ws.push_back(std::make_unique<core::QueryWorkspace>());
    }
    emissions.resize(num_shards);
    partials.resize(num_shards);
    profiles.resize(num_shards);
    shard_stops.resize(num_shards);
  }
};

// RAII hand-back into the recommender's scratch free list.
class ShardedRecommender::ScratchLease {
 public:
  ScratchLease(const ShardedRecommender* owner,
               std::unique_ptr<FanoutScratch> scratch)
      : owner_(owner), scratch_(std::move(scratch)) {}
  ScratchLease(ScratchLease&&) noexcept = default;
  ~ScratchLease() {
    if (scratch_ == nullptr) return;
    std::lock_guard<std::mutex> lock(owner_->scratch_mu_);
    owner_->scratch_free_.push_back(std::move(scratch_));
  }

  FanoutScratch& operator*() const { return *scratch_; }

 private:
  const ShardedRecommender* owner_;
  std::unique_ptr<FanoutScratch> scratch_;
};

ShardedRecommender::ShardedRecommender(
    std::shared_ptr<const model::ShardedSnapshot> sharded,
    core::Strategy strategy, util::ThreadPool* pool,
    core::BestMatchOptions best_match_options, obs::Histogram* merge_latency_us)
    : sharded_(std::move(sharded)),
      strategy_(strategy),
      pool_(pool),
      merge_latency_us_(merge_latency_us) {
  GOALREC_CHECK(sharded_ != nullptr);
  GOALREC_CHECK(sharded_->base != nullptr);
  const uint32_t n = sharded_->num_shards;
  kernels_.reserve(n + 1);
  for (uint32_t s = 0; s < n; ++s) {
    kernels_.push_back(core::MakeStrategy(sharded_->shard_library(s),
                                          strategy_, best_match_options));
  }
  // Best Match ranks the merged partials at the root over the base library.
  if (strategy_ == core::Strategy::kBestMatch) {
    kernels_.push_back(
        core::MakeStrategy(*sharded_->base, strategy_, best_match_options));
  }
}

ShardedRecommender::~ShardedRecommender() = default;

std::string ShardedRecommender::name() const {
  return kernels_.front()->name();
}

ShardedRecommender::ScratchLease ShardedRecommender::Acquire() const {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_free_.empty()) {
      std::unique_ptr<FanoutScratch> scratch = std::move(scratch_free_.back());
      scratch_free_.pop_back();
      return ScratchLease(this, std::move(scratch));
    }
  }
  return ScratchLease(this,
                      std::make_unique<FanoutScratch>(sharded_->num_shards));
}

void ShardedRecommender::RunPhase(
    FanoutScratch& scratch, const std::function<void(size_t)>& body) const {
  const size_t n = sharded_->num_shards;
  if (pool_ == nullptr || n <= 1) {
    for (size_t s = 0; s < n; ++s) body(s);
    return;
  }
  scratch.body = &body;
  {
    std::lock_guard<std::mutex> lock(scratch.mu);
    scratch.pending = n - 1;
  }
  // Unconditional join, even if the inline shard-0 body throws: a pool task
  // must never outlive the scratch (or the activity span) it references.
  struct PhaseJoin {
    FanoutScratch& s;
    ~PhaseJoin() {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait(lock, [this] { return s.pending == 0; });
      s.body = nullptr;
    }
  } join{scratch};
  for (size_t s = 1; s < n; ++s) {
    pool_->Submit([&scratch, s] {
      // Count down even when the body throws (the pool records the
      // exception; the root must still unblock).
      struct Countdown {
        FanoutScratch& s;
        ~Countdown() {
          std::lock_guard<std::mutex> lock(s.mu);
          if (--s.pending == 0) s.cv.notify_one();
        }
      } countdown{scratch};
      (*scratch.body)(s);
    });
  }
  body(0);
}

void ShardedRecommender::ServeSharded(util::IdSpan normalized, size_t k,
                                      const util::StopToken* stop,
                                      core::QueryWorkspace& root_ws,
                                      FanoutScratch& scratch,
                                      core::RecommendationList& out) const {
  const uint32_t n = sharded_->num_shards;
  const uint32_t num_actions = sharded_->base->num_actions();
  for (uint32_t s = 0; s < n; ++s) {
    scratch.shard_ws[s]->kernel_stats = core::QueryWorkspace::KernelStats{};
  }
  // Each shard task polls its own copy of the caller's token: the copies
  // observe the same deadline and cancellation flag, but with private
  // (non-thread-safe) poll counters, so concurrent shard tasks never share
  // the caller's poll state. The root-side merge, which runs on the calling
  // thread after the join, keeps polling the original.
  if (stop != nullptr) {
    for (uint32_t s = 0; s < n; ++s) scratch.shard_stops[s] = *stop;
  }
  const auto shard_stop = [stop, &scratch](size_t s) -> const util::StopToken* {
    return stop == nullptr ? nullptr : &scratch.shard_stops[s];
  };
  const auto merge_start_ready = [this] {
    return merge_latency_us_ != nullptr;
  };
  std::chrono::steady_clock::time_point merge_start;

  switch (strategy_) {
    case core::Strategy::kFocusCompleteness:
    case core::Strategy::kFocusCloseness: {
      std::function<void(size_t)> body = [&](size_t s) {
        kernel<core::FocusRecommender>(s).EmitShardForMerge(
            normalized, k, sharded_->local_to_logical[s], shard_stop(s),
            *scratch.shard_ws[s], scratch.emissions[s]);
      };
      RunPhase(scratch, body);
      if (merge_start_ready()) merge_start = std::chrono::steady_clock::now();
      core::MergeFocusEmissions(
          std::span<const std::vector<core::ShardEmission>>(
              scratch.emissions.data(), n),
          num_actions, k, root_ws, out);
      break;
    }
    case core::Strategy::kBreadth: {
      std::function<void(size_t)> body = [&](size_t s) {
        kernel<core::BreadthRecommender>(s).AccumulateShard(
            normalized, shard_stop(s), *scratch.shard_ws[s],
            scratch.partials[s]);
      };
      RunPhase(scratch, body);
      if (merge_start_ready()) merge_start = std::chrono::steady_clock::now();
      core::MergeBreadthPartials(
          std::span<const std::vector<core::ShardActionScore>>(
              scratch.partials.data(), n),
          num_actions, k, root_ws, out);
      break;
    }
    case core::Strategy::kBestMatch: {
      std::function<void(size_t)> body = [&](size_t s) {
        kernel<core::BestMatchRecommender>(s).ScanShard(
            normalized, shard_stop(s), *scratch.shard_ws[s],
            scratch.profiles[s]);
      };
      RunPhase(scratch, body);
      if (merge_start_ready()) merge_start = std::chrono::steady_clock::now();
      out.clear();
      // A shard stopped mid-scan sent half-summed partials: serve nothing
      // rather than distances that are not the query's.
      if (stop != nullptr && stop->StopRequested()) break;
      core::MergeBestMatchShards(
          std::span<const core::BestMatchShardProfile>(scratch.profiles.data(),
                                                       n),
          kernel<core::BestMatchRecommender>(n), num_actions, k, root_ws,
          out);
      break;
    }
  }
  if (merge_latency_us_ != nullptr) {
    merge_latency_us_->Observe(std::chrono::duration<double, std::micro>(
                                   std::chrono::steady_clock::now() -
                                   merge_start)
                                   .count());
  }
  // Roll the shard kernels' tail-exemplar counters up into the root
  // workspace the engine inspects (the root merge already bumped its own
  // dense_fallbacks for root-side fallbacks).
  for (uint32_t s = 0; s < n; ++s) {
    const core::QueryWorkspace::KernelStats& stats =
        scratch.shard_ws[s]->kernel_stats;
    root_ws.kernel_stats.dense_fallbacks += stats.dense_fallbacks;
    root_ws.kernel_stats.slots_touched += stats.slots_touched;
    root_ws.kernel_stats.dense_resets += stats.dense_resets;
  }
}

core::RecommendationList ShardedRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  core::RecommendationList out;
  RecommendPooled(activity, k, nullptr, nullptr, out);
  return out;
}

void ShardedRecommender::RecommendPooled(util::IdSpan activity, size_t k,
                                         const util::StopToken* stop,
                                         core::QueryWorkspace* workspace,
                                         core::RecommendationList& out) const {
  std::optional<core::QueryWorkspace> fresh;
  core::QueryWorkspace& root_ws =
      workspace != nullptr ? *workspace : fresh.emplace();
  root_ws.activity.assign(activity.begin(), activity.end());
  util::Normalize(root_ws.activity);
  ScratchLease lease = Acquire();
  ServeSharded(root_ws.activity, k, stop, root_ws, *lease, out);
}

LadderFactory MakeShardedLadderFactory(ShardedLadderOptions options) {
  if (options.num_shards == 0) options.num_shards = 1;
  obs::Histogram* merge_latency = nullptr;
  if (options.num_shards > 1) {
    obs::MetricRegistry& registry = options.metrics != nullptr
                                        ? *options.metrics
                                        : obs::MetricRegistry::Default();
    merge_latency = registry.GetHistogram(
        "goalrec_shard_merge_latency_us", obs::DefaultLatencyBucketsUs(), {},
        "Root-side shard merge latency per query (us)");
  }
  return [options, merge_latency](const model::ImplementationLibrary& library,
                                  ServingSnapshot& out) {
    if (options.num_shards > 1) {
      uint64_t version = out.library != nullptr ? out.library->version : 0;
      out.sharded =
          model::BuildShardedSnapshot(library, options.num_shards, version);
    }
    for (core::Strategy strategy : options.rungs) {
      std::unique_ptr<const core::Recommender> rung =
          out.sharded != nullptr
              ? std::make_unique<ShardedRecommender>(
                    out.sharded, strategy, options.pool,
                    core::BestMatchOptions{}, merge_latency)
              : core::MakeStrategy(library, strategy);
      out.rungs.push_back(ServingEngine::Rung{
          std::string(core::StrategyKey(strategy)), rung.get()});
      out.owned.push_back(std::move(rung));
    }
    auto floor = std::make_unique<LibraryPopularityRecommender>(&library);
    out.rungs.push_back(ServingEngine::Rung{"popularity", floor.get()});
    out.owned.push_back(std::move(floor));
  };
}

ShardStatsExporter::ShardStatsExporter(obs::MetricRegistry* registry,
                                       Provider provider)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricRegistry::Default()),
      provider_(std::move(provider)) {
  GOALREC_CHECK(provider_ != nullptr);
  hook_id_ = registry_->AddScrapeHook([this] {
    std::shared_ptr<const model::ShardedSnapshot> snapshot = provider_();
    if (snapshot == nullptr) return;
    registry_
        ->GetGauge("goalrec_shard_count", {},
                   "Shards in the serving snapshot")
        ->Set(static_cast<int64_t>(snapshot->num_shards));
    for (uint32_t s = 0; s < snapshot->num_shards; ++s) {
      registry_
          ->GetGauge("goalrec_shard_impls",
                     {{"shard", std::to_string(s)}},
                     "Implementations on one shard")
          ->Set(static_cast<int64_t>(
              snapshot->shard_library(s).num_implementations()));
    }
  });
}

ShardStatsExporter::~ShardStatsExporter() {
  registry_->RemoveScrapeHook(hook_id_);
}

}  // namespace goalrec::serve
