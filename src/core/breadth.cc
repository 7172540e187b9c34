#include "core/breadth.h"

#include <atomic>
#include <optional>

#include "core/query_workspace.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/set_ops.h"
#include "util/top_k.h"

namespace goalrec::core {
namespace {

// Dense-accumulator activation threshold, as a multiple of num_actions
// (see SetBreadthDenseCreditMultiplier in breadth.h). 4× is conservative:
// the dense path must clearly amortise its O(num_actions) reset + scan.
std::atomic<double> g_dense_credit_multiplier{4.0};

}  // namespace

double SetBreadthDenseCreditMultiplier(double multiplier) {
  return g_dense_credit_multiplier.exchange(multiplier,
                                            std::memory_order_relaxed);
}

BreadthRecommender::BreadthRecommender(
    const model::ImplementationLibrary* library)
    : library_(library) {
  GOALREC_CHECK(library_ != nullptr);
}

double BreadthRecommender::Score(model::ActionId action,
                                 const model::Activity& activity) const {
  double score = 0.0;
  for (model::ImplId p : library_->ImplsOfAction(action)) {
    size_t common =
        util::IntersectionSize(library_->ActionsOf(p), activity);
    score += static_cast<double>(common);
  }
  return score;
}

RecommendationList BreadthRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  RecommendationList out;
  RecommendPooled(activity, k, nullptr, nullptr, out);
  return out;
}

// Scatter + accumulation shared by the serving kernel and the sharded
// fan-out. Pass 1 walks the ImplsOfAction postings of every h ∈ H bumping a
// per-implementation counter — after the pass every implementation
// p ∈ IS(H) holds |A_p ∩ H| with no sorted intersections. Pass 2 credits
// each count to the implementation's member actions, through one of two
// accumulators:
//
//   * sparse (default): the epoch-stamped score array — O(1) reset, only
//     touched actions visited afterwards;
//   * dense: a plain array reset by assign() when the credit mass Σ|A_p|
//     exceeds the configured multiple of num_actions — at that density
//     every action slot is hit several times anyway, and the unconditional
//     `+=` beats the sparse path's per-credit epoch branch.
//
// Bit-identity: scores are sums of small non-negative integers held in
// doubles — every partial sum is an exact integer, so the result is
// independent of accumulation order *and* of which accumulator ran; the
// differential wall pins both against the reference.
bool BreadthRecommender::AccumulateScores(util::IdSpan activity,
                                          const util::StopToken* stop,
                                          QueryWorkspace& ws) const {
  const uint32_t num_actions = library_->num_actions();
  ws.BeginHMark(num_actions);
  ws.BeginImplPass(library_->num_implementations());
  for (model::ActionId h : activity) {
    if (h >= num_actions) continue;  // action unseen by the library
    ws.MarkH(h);
    for (model::ImplId p : library_->ImplsOfAction(h)) ws.BumpImplCount(p);
  }
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kScatter),
      static_cast<uint32_t>(activity.size()));

  uint64_t credits = 0;
  for (model::ImplId p : ws.touched_impls()) {
    credits += library_->ImplActionCount(p);
  }
  const double threshold =
      g_dense_credit_multiplier.load(std::memory_order_relaxed) *
      static_cast<double>(num_actions);
  if (static_cast<double>(credits) > threshold) {
    ++ws.kernel_stats.dense_resets;
    ws.dense_score.assign(num_actions, 0.0);
    for (model::ImplId p : ws.touched_impls()) {
      if (stop != nullptr && stop->ShouldStop()) break;  // partial
      const double common = static_cast<double>(ws.ImplCountOf(p));
      for (model::ActionId a : library_->ActionsOf(p)) {
        ws.dense_score[a] += common;
      }
    }
    obs::FlightRecorder::Default().Record(
        obs::RecorderEventType::kStageStamp,
        static_cast<uint16_t>(obs::KernelStage::kRank),
        static_cast<uint32_t>(num_actions));
    return true;
  }

  ws.BeginActionPass(num_actions);
  for (model::ImplId p : ws.touched_impls()) {
    if (stop != nullptr && stop->ShouldStop()) break;  // best-effort partial
    const double common = static_cast<double>(ws.ImplCountOf(p));
    for (model::ActionId a : library_->ActionsOf(p)) ws.AddScore(a, common);
  }
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kRank),
      static_cast<uint32_t>(ws.touched().size()));
  return false;
}

void BreadthRecommender::RecommendPooled(util::IdSpan activity, size_t k,
                                         const util::StopToken* stop,
                                         QueryWorkspace* workspace,
                                         RecommendationList& out) const {
  std::optional<QueryWorkspace> fresh;
  QueryWorkspace& ws = workspace != nullptr ? *workspace : fresh.emplace();
  ws.activity.assign(activity.begin(), activity.end());
  util::Normalize(ws.activity);
  obs::ScopedSpan span(obs::CurrentTrace(), "strategy/Breadth");
  out.clear();
  if (k == 0) return;
  const uint32_t num_actions = library_->num_actions();
  const bool dense = AccumulateScores(ws.activity, stop, ws);

  // The top-k comparator is a total order (score desc, action id asc), so
  // the result is independent of the candidate traversal order — the dense
  // path's ascending-id scan and the sparse path's first-touch walk select
  // the identical list.
  ws.top_k.Reset(k);
  if (dense) {
    for (model::ActionId a = 0; a < num_actions; ++a) {
      double score = ws.dense_score[a];
      if (score <= 0.0) continue;  // untouched
      if (ws.InH(a)) continue;     // already performed
      ws.top_k.Push(score, a);
    }
  } else {
    for (model::ActionId a : ws.touched()) {
      if (ws.InH(a)) continue;  // already performed
      ws.top_k.Push(ws.ScoreOf(a), a);
    }
  }
  ws.top_k.TakeInto([&out](double score, uint32_t id) {
    out.push_back(ScoredAction{id, score});
  });
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kEmit),
      static_cast<uint32_t>(out.size()));
  span.Annotate("impl_space", ws.touched_impls().size());
  span.Annotate("dense_reset", dense);
  span.Annotate("emitted", out.size());
  if (stop != nullptr && stop->StopRequested()) {
    span.Annotate("stopped_early", true);
  }
}

void BreadthRecommender::AccumulateShard(
    util::IdSpan activity, const util::StopToken* stop, QueryWorkspace& ws,
    std::vector<ShardActionScore>& out) const {
  out.clear();
  const bool dense = AccumulateScores(activity, stop, ws);
  if (dense) {
    const uint32_t num_actions = library_->num_actions();
    for (model::ActionId a = 0; a < num_actions; ++a) {
      double score = ws.dense_score[a];
      if (score <= 0.0) continue;
      if (ws.InH(a)) continue;  // H is shard-independent: filter at the leaf
      out.push_back(ShardActionScore{a, score});
    }
  } else {
    for (model::ActionId a : ws.touched()) {
      if (ws.InH(a)) continue;
      out.push_back(ShardActionScore{a, ws.ScoreOf(a)});
    }
  }
}

}  // namespace goalrec::core
