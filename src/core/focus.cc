#include "core/focus.h"

#include <algorithm>
#include <optional>

#include "core/query_workspace.h"
#include "core/strategy.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::core {

double Completeness(util::IdSpan impl_actions, util::IdSpan activity) {
  if (impl_actions.empty()) return 0.0;
  size_t common = util::IntersectionSize(impl_actions, activity);
  return static_cast<double>(common) /
         static_cast<double>(impl_actions.size());
}

double Closeness(util::IdSpan impl_actions, util::IdSpan activity) {
  size_t remaining = util::DifferenceSize(impl_actions, activity);
  if (remaining == 0) return 0.0;  // nothing left to recommend
  return 1.0 / static_cast<double>(remaining);
}

FocusRecommender::FocusRecommender(
    const model::ImplementationLibrary* library, FocusVariant variant)
    : library_(library), variant_(variant) {
  GOALREC_CHECK(library_ != nullptr);
  trace_label_ = "strategy/" + name();
}

std::string FocusRecommender::name() const {
  return std::string(StrategyName(variant_ == FocusVariant::kCompleteness
                                      ? Strategy::kFocusCompleteness
                                      : Strategy::kFocusCloseness));
}

std::vector<RankedImplementation> FocusRecommender::RankImplementations(
    const model::Activity& activity) const {
  model::Activity normalized = activity;
  util::Normalize(normalized);
  QueryWorkspace workspace;
  std::vector<RankedImplementation> ranked;
  RankInto(normalized, nullptr, workspace, ranked);
  return ranked;
}

void FocusRecommender::RankInto(util::IdSpan activity,
                                const util::StopToken* stop,
                                QueryWorkspace& ws,
                                std::vector<RankedImplementation>& out) const {
  RankUnsortedInto(activity, stop, ws, out);
  // (score desc, impl asc) is a total order, so the sorted ranking is
  // independent of the touched list's first-touch order.
  std::sort(out.begin(), out.end(),
            [](const RankedImplementation& a, const RankedImplementation& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.impl < b.impl;
            });
}

// The ranking kernel. One scatter pass over the ImplsOfAction postings of
// every h ∈ H computes |A_p ∩ H| for all of IS(H) at once (an epoch-stamped
// per-implementation counter — no per-implementation sorted intersection),
// and marks H in the workspace's dense H marker for the emission pass. The
// score arithmetic is bit-identical to Completeness/Closeness above:
// completeness performs the same double division (count / |A|, with |A|
// pre-converted at build time), and closeness reads the library's 1/r
// reciprocal table, whose entries are the exact IEEE quotients.
void FocusRecommender::RankUnsortedInto(
    util::IdSpan activity, const util::StopToken* stop, QueryWorkspace& ws,
    std::vector<RankedImplementation>& out) const {
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
  out.clear();
  const bool completeness = variant_ == FocusVariant::kCompleteness;
  for (model::ImplId p : ws.touched_impls()) {
    if (stop != nullptr && stop->ShouldStop()) break;  // best-effort partial
    uint32_t common = ws.ImplCountOf(p);
    uint32_t size = library_->ImplActionCount(p);
    // |A ∩ H| = |A| ⇔ A ⊆ H: fully covered implementations contribute no
    // candidates; both measures skip them. (Empty implementations are never
    // touched by the scatter, matching the old IsSubset skip.)
    if (common == size) continue;
    double score = completeness
                       ? static_cast<double>(common) /
                             library_->ImplActionCountD(p)
                       : library_->Reciprocal(size - common);
    out.push_back(RankedImplementation{p, score});
  }
}

RecommendationList FocusRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  RecommendationList out;
  RecommendPooled(activity, k, nullptr, nullptr, out);
  return out;
}

// Focus needs neither the goal space nor the candidate set, and the ranking
// kernel derives IS(H) itself from the postings scatter.
void FocusRecommender::RecommendPooled(util::IdSpan activity, size_t k,
                                       const util::StopToken* stop,
                                       QueryWorkspace* workspace,
                                       RecommendationList& out) const {
  std::optional<QueryWorkspace> fresh;
  QueryWorkspace& ws = workspace != nullptr ? *workspace : fresh.emplace();
  ws.activity.assign(activity.begin(), activity.end());
  util::Normalize(ws.activity);
  obs::ScopedSpan span(obs::CurrentTrace(), trace_label_);
  RankUnsortedInto(ws.activity, stop, ws, ws.ranked);
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kRank),
      static_cast<uint32_t>(ws.ranked.size()));
  EmitFromRanking(ws.ranked, k, ws, out);
  obs::FlightRecorder::Default().Record(
      obs::RecorderEventType::kStageStamp,
      static_cast<uint16_t>(obs::KernelStage::kEmit),
      static_cast<uint32_t>(out.size()));
  span.Annotate("impl_space", ws.touched_impls().size());
  span.Annotate("impls_ranked", ws.ranked.size());
  span.Annotate("emitted", out.size());
  if (stop != nullptr && stop->StopRequested()) {
    span.Annotate("stopped_early", true);
  }
}

void FocusRecommender::EmitShardForMerge(
    util::IdSpan activity, size_t k, util::IdSpan local_to_logical,
    const util::StopToken* stop, QueryWorkspace& ws,
    std::vector<ShardEmission>& out) const {
  out.clear();
  if (k == 0) return;
  RankUnsortedInto(activity, stop, ws, ws.ranked);
  // Same lazy-heap walk as EmitFromRanking — identical comparator, local
  // action dedup, ascending-id action order within an implementation — but
  // each emission is tagged with the implementation's logical id (the tie
  // key of the root merge) instead of being pushed into the result. The
  // local dedup never drops a record the root would emit: the global
  // emitter of an action is that action's first implementation in global
  // (score desc, logical asc) order, and any locally-earlier implementation
  // containing the action would also be globally earlier.
  ws.BeginActionPass(library_->num_actions());
  auto worse = [](const RankedImplementation& a,
                  const RankedImplementation& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.impl > b.impl;
  };
  std::make_heap(ws.ranked.begin(), ws.ranked.end(), worse);
  auto end = ws.ranked.end();
  while (end != ws.ranked.begin()) {
    std::pop_heap(ws.ranked.begin(), end, worse);
    --end;
    const RankedImplementation& entry = *end;
    for (model::ActionId a : library_->ActionsOf(entry.impl)) {
      if (ws.InH(a)) continue;            // already performed
      if (!ws.TestAndMark(a)) continue;   // locally deduped
      out.push_back(
          ShardEmission{a, entry.score, local_to_logical[entry.impl]});
      if (out.size() == k) return;
    }
  }
}

void FocusRecommender::EmitFromRanking(
    std::vector<RankedImplementation>& ranking, size_t k,
    QueryWorkspace& workspace, RecommendationList& out) const {
  out.clear();
  if (k == 0 || ranking.empty()) return;
  // Walk the implementations best-first; "pop out" the missing actions of
  // each before moving to the next (paper §6.1.2 C.2.2 describes exactly this
  // behaviour), skipping actions already emitted via a better implementation.
  // Both membership probes — performed (H) and already-emitted — are O(1)
  // epoch-stamped marker reads; RankUnsortedInto marked H, so this must run
  // on the same workspace, after it. Actions of one implementation are
  // visited in ascending id order, which preserves the tie order exactly.
  //
  // The best-first walk is a lazy heap selection rather than a full sort:
  // emission usually stops after a handful of implementations, so O(n)
  // heapify plus a few O(log n) pops beats sorting the whole ranking. The
  // comparator is the same (score desc, impl asc) total order RankInto
  // sorts by, so pop order is exactly the sorted order as far as the walk
  // gets. `ranking` is scratch and left partially reordered.
  workspace.BeginActionPass(library_->num_actions());
  auto worse = [](const RankedImplementation& a,
                  const RankedImplementation& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.impl > b.impl;
  };
  std::make_heap(ranking.begin(), ranking.end(), worse);
  auto end = ranking.end();
  while (end != ranking.begin()) {
    std::pop_heap(ranking.begin(), end, worse);
    --end;
    const RankedImplementation& entry = *end;
    for (model::ActionId a : library_->ActionsOf(entry.impl)) {
      if (workspace.InH(a)) continue;            // already performed
      if (!workspace.TestAndMark(a)) continue;   // already emitted
      out.push_back(ScoredAction{a, entry.score});
      if (out.size() == k) return;
    }
  }
}

}  // namespace goalrec::core
