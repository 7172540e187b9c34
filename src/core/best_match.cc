#include "core/best_match.h"

#include <algorithm>
#include <cmath>

#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/top_k.h"

namespace goalrec::core {
namespace {

// Index of `goal` within the sorted goal space, or -1 when absent.
int64_t GoalIndex(std::span<const model::GoalId> goal_space,
                  model::GoalId goal) {
  auto it = std::lower_bound(goal_space.begin(), goal_space.end(), goal);
  if (it == goal_space.end() || *it != goal) return -1;
  return it - goal_space.begin();
}

// Unweighted goal-space vectors hold small non-negative integers, and
// doubles add, subtract and multiply integers exactly while every
// intermediate stays below 2^53 — under that bound the dense strict-order
// accumulation and the goal-major partial sums compute the *same real
// number*, hence the same double, and the kernel is bit-identical to the
// reference walk. `dims` is the goal-space size and `cap` bounds every
// vector entry; the 8·n margin generously covers the worst intermediate
// (≈ 3·n·cap²).
bool SparseDistanceIsExact(size_t dims, double cap) {
  return (8.0 * static_cast<double>(dims) + 8.0) * cap * cap < 9.0e15;
}

}  // namespace

BestMatchRecommender::BestMatchRecommender(
    const model::ImplementationLibrary* library, BestMatchOptions options)
    : library_(library), options_(options) {
  GOALREC_CHECK(library_ != nullptr);
}

void BestMatchRecommender::ActionVectorInto(
    model::ActionId action, std::span<const model::GoalId> goal_space,
    util::DenseVector& out) const {
  out.assign(goal_space.size(), 0.0);
  for (model::ImplId p : library_->ImplsOfAction(action)) {
    int64_t idx = GoalIndex(goal_space, library_->GoalOf(p));
    if (idx < 0) continue;  // goal outside F_GS(H)
    if (options_.representation == GoalVectorRepresentation::kBoolean) {
      out[static_cast<size_t>(idx)] = 1.0;
    } else {
      out[static_cast<size_t>(idx)] += 1.0;
    }
  }
  if (options_.goal_weights != nullptr) {
    for (size_t i = 0; i < goal_space.size(); ++i) {
      out[i] *= options_.goal_weights->WeightOf(goal_space[i]);
    }
  }
}

util::DenseVector BestMatchRecommender::ActionVector(
    model::ActionId action, const model::IdSet& goal_space) const {
  util::DenseVector vec;
  ActionVectorInto(action, goal_space, vec);
  return vec;
}

void BestMatchRecommender::ProfileInto(util::IdSpan activity,
                                       std::span<const model::GoalId> goal_space,
                                       util::DenseVector& out,
                                       util::DenseVector& scratch) const {
  // Eq. 9: H⃗ = Σ_{a ∈ H} a⃗. Identical to Algorithm 3's single map-building
  // pass when the representation is kImplementationCount.
  out.assign(goal_space.size(), 0.0);
  for (model::ActionId a : activity) {
    ActionVectorInto(a, goal_space, scratch);
    util::AddInPlace(out, scratch);
  }
}

util::DenseVector BestMatchRecommender::Profile(
    const model::Activity& activity, const model::IdSet& goal_space) const {
  util::DenseVector profile;
  util::DenseVector scratch;
  ProfileInto(activity, goal_space, profile, scratch);
  return profile;
}

RecommendationList BestMatchRecommender::Recommend(
    const model::Activity& activity, size_t k) const {
  return RecommendCancellable(activity, k, nullptr);
}

RecommendationList BestMatchRecommender::RecommendCancellable(
    const model::Activity& activity, size_t k,
    const util::StopToken* stop) const {
  QueryContext context = QueryContext::Create(*library_, activity, stop);
  return RecommendInContext(context, k);
}

void BestMatchRecommender::RecommendPooled(util::IdSpan activity, size_t k,
                                           const util::StopToken* stop,
                                           QueryWorkspace* workspace,
                                           RecommendationList& out) const {
  if (workspace == nullptr) {
    out = RecommendCancellable(
        model::Activity(activity.begin(), activity.end()), k, stop);
    return;
  }
  QueryWorkspace& ws = *workspace;
  ws.activity.assign(activity.begin(), activity.end());
  util::Normalize(ws.activity);
  DeriveSpaces(ws.activity, ws, ws.candidates);
  RecommendOver(ws.activity, ws.goal_space, ws.candidates, k, stop, ws, out);
}

// GS(H) and AS(H) − H straight from the postings scatter: one
// per-implementation counting pass gives IS(H); goals dedup through the
// goal marker, candidates through the action marker. Same sets as
// QueryContext::Create, without materialising IS(H)'s sorted union or the
// candidate sort (the top-k order is total, so candidate order is free).
void BestMatchRecommender::DeriveSpaces(util::IdSpan activity,
                                        QueryWorkspace& ws,
                                        model::IdSet& candidates) const {
  const uint32_t num_actions = library_->num_actions();
  ws.BeginHMark(num_actions);
  ws.BeginImplPass(library_->num_implementations());
  for (model::ActionId h : activity) {
    if (h >= num_actions) continue;  // action unseen by the library
    ws.MarkH(h);
    for (model::ImplId p : library_->ImplsOfAction(h)) ws.BumpImplCount(p);
  }
  ws.BeginGoalPass(library_->num_goals());
  ws.goal_space.clear();
  for (model::ImplId p : ws.touched_impls()) {
    model::GoalId g = library_->GoalOf(p);
    if (ws.TestAndMarkGoal(g)) ws.goal_space.push_back(g);
  }
  std::sort(ws.goal_space.begin(), ws.goal_space.end());
  ws.BeginActionPass(num_actions);
  candidates.clear();
  for (model::ImplId p : ws.touched_impls()) {
    for (model::ActionId a : library_->ActionsOf(p)) {
      if (ws.InH(a)) continue;
      if (ws.TestAndMark(a)) candidates.push_back(a);
    }
  }
}

RecommendationList BestMatchRecommender::RecommendInContext(
    const QueryContext& context, size_t k) const {
  RecommendationList list;
  RecommendInContext(context, k, list);
  return list;
}

void BestMatchRecommender::RecommendInContext(const QueryContext& context,
                                              size_t k,
                                              RecommendationList& out) const {
  GOALREC_CHECK(context.library == library_);
  GOALREC_CHECK(context.workspace != nullptr);
  RecommendOver(context.activity, context.goal_space, context.candidates, k,
                context.stop, *context.workspace, out);
}

// The goal-major scan. The dense evaluation embeds every candidate as a
// full |GS(H)|-dimensional vector; a candidate's vector is non-zero only on
// goals whose implementations contain it, so the scan walks the
// implementations of GS(H)'s goals once, goal by goal, and counts per
// action how many of goal g_i's implementations contain it: that count is
// c_i (capped at 1 for kBoolean). H's own actions counted the same way give
// the profile entry h_i. Each (action, goal) count is folded into the
// action's partial as soon as a later goal touches the action — h_i is
// complete by then — and the rest after the last goal:
//
//   Euclidean  x += (h − c)² − h²      distance² = Σh² + x
//   Manhattan  x += |h − c| − h        distance  = Σh + x
//   Cosine     x += h·c, y += c²       distance  = 1 − x / (‖H⃗‖·√y)
//
// Every term is an exact integer under SparseDistanceIsExact, so the sums
// equal the dense strict-order walk's whatever the order. The scan never
// looks at the postings of the candidates themselves, which reach far
// outside GS(H) for well-connected actions.
//
// Entry state per action a, against the pass's base stamp: stamp < base is
// stale (untouched this query); hits == kInH with stamp >= base marks a ∈ H;
// otherwise stamp = base + 1 + i names the goal slot whose count `hits`
// still holds unfolded.
bool BestMatchRecommender::ScanGoals(util::IdSpan activity,
                                     std::span<const model::GoalId> goal_space,
                                     const util::StopToken* stop,
                                     QueryWorkspace& ws) const {
  constexpr uint32_t kInH = 0xFFFFFFFFu;
  const size_t n = goal_space.size();
  const uint32_t num_actions = library_->num_actions();
  const bool boolean =
      options_.representation == GoalVectorRepresentation::kBoolean;
  const util::DistanceMetric metric = options_.metric;
  const uint32_t base = ws.BeginPartialPass(num_actions, n);
  for (model::ActionId a : activity) {
    if (a < num_actions) ws.partials[a] = {base, kInH, 0.0, 0.0};
  }
  uint32_t folds = 0;
  const auto fold = [&](QueryWorkspace::ActionPartial& e) {
    const double h = ws.profile[e.stamp - base - 1];
    const double c = boolean ? 1.0 : static_cast<double>(e.hits);
    switch (metric) {
      case util::DistanceMetric::kEuclidean: {
        const double d = h - c;
        e.x += d * d - h * h;
        break;
      }
      case util::DistanceMetric::kManhattan:
        e.x += std::abs(h - c) - h;
        break;
      case util::DistanceMetric::kCosine:
        e.x += h * c;
        e.y += c * c;
        break;
    }
    ++folds;
  };
  ws.profile.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (stop != nullptr && stop->ShouldStop()) return false;
    const uint32_t cur = base + 1 + static_cast<uint32_t>(i);
    double h = 0.0;
    for (model::ImplId p : library_->ImplsOfGoal(goal_space[i])) {
      for (model::ActionId a : library_->ActionsOf(p)) {
        QueryWorkspace::ActionPartial& e = ws.partials[a];
        if (e.stamp == cur) {
          if (e.hits != kInH) {
            ++e.hits;
          } else if (!boolean) {
            h += 1.0;
          }
        } else if (e.stamp < base) {  // first touch this query
          e = {cur, 1, 0.0, 0.0};
          ws.partial_actions.push_back(a);
        } else if (e.hits == kInH) {  // first touch of this goal, a ∈ H
          e.stamp = cur;
          h += 1.0;
        } else {  // first touch of this goal: fold the previous goal's count
          fold(e);
          e.stamp = cur;
          e.hits = 1;
        }
      }
    }
    ws.profile[i] = h;
  }
  for (model::ActionId a : ws.partial_actions) fold(ws.partials[a]);
  ws.kernel_stats.slots_touched += folds;
  return true;
}

void BestMatchRecommender::RankCandidates(
    std::span<const model::GoalId> goal_space, util::IdSpan candidates,
    size_t k, QueryWorkspace& ws, RecommendationList& out) const {
  out.clear();
  if (k == 0 || goal_space.empty()) return;
  const size_t n = goal_space.size();
  // Whole-profile totals (exact integers; ‖H⃗‖ matches util::Norm2 bitwise
  // because Σh² is the same exact integer either way).
  double max_h = 0.0, s1 = 0.0, s2 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double h = ws.profile[i];
    max_h = std::max(max_h, h);
    s1 += h;
    s2 += h * h;
  }
  const double norm_h = std::sqrt(s2);
  const bool profile_exact = SparseDistanceIsExact(n, max_h);
  const util::DistanceMetric metric = options_.metric;
  ws.top_k.Reset(k);
  for (model::ActionId a : candidates) {
    double cap = std::max(
        max_h, static_cast<double>(library_->ImplsOfAction(a).size()));
    if (!profile_exact || !SparseDistanceIsExact(n, cap)) {
      // Astronomically large counts: the partial sums may have rounded, so
      // take the dense strict-order walk instead.
      ++ws.kernel_stats.dense_fallbacks;
      ActionVectorInto(a, goal_space, ws.action_vec);
      ws.top_k.Push(-util::Distance(ws.profile, ws.action_vec, metric), a);
      continue;
    }
    const QueryWorkspace::ActionPartial& e = ws.partials[a];
    double distance = 0.0;
    switch (metric) {
      case util::DistanceMetric::kEuclidean:
        distance = std::sqrt(s2 + e.x);
        break;
      case util::DistanceMetric::kManhattan:
        distance = s1 + e.x;
        break;
      case util::DistanceMetric::kCosine: {
        double nb = std::sqrt(e.y);
        // Same expression shape as util::CosineSimilarity, same operands.
        double sim = (norm_h == 0.0 || nb == 0.0) ? 0.0 : e.x / (norm_h * nb);
        distance = 1.0 - sim;
        break;
      }
    }
    // Negate: smaller distance ranks first under the shared
    // higher-score-wins comparator.
    ws.top_k.Push(-distance, a);
  }
  ws.top_k.TakeInto([&out](double score, uint32_t id) {
    out.push_back(ScoredAction{id, score});
  });
}

// Goal weights scale dimensions by arbitrary doubles, which breaks the
// exact-integer argument, so the weighted path keeps the dense evaluation.
void BestMatchRecommender::RecommendOver(
    util::IdSpan activity, std::span<const model::GoalId> goal_space,
    util::IdSpan candidates, size_t k, const util::StopToken* stop,
    QueryWorkspace& ws, RecommendationList& out) const {
  obs::ScopedSpan span(obs::CurrentTrace(), "strategy/BestMatch");
  span.Annotate("goal_space", goal_space.size());
  span.Annotate("candidates", candidates.size());
  out.clear();
  if (k == 0) return;
  if (goal_space.empty()) return;

  if (options_.goal_weights != nullptr) {
    ProfileInto(activity, goal_space, ws.profile, ws.action_vec);
    ws.top_k.Reset(k);
    for (model::ActionId a : candidates) {
      if (stop != nullptr && stop->ShouldStop()) break;  // best-effort partial
      ActionVectorInto(a, goal_space, ws.action_vec);
      ws.top_k.Push(-util::Distance(ws.profile, ws.action_vec,
                                    options_.metric),
                    a);
    }
    ws.top_k.TakeInto([&out](double score, uint32_t id) {
      out.push_back(ScoredAction{id, score});
    });
  } else if (ScanGoals(activity, goal_space, stop, ws)) {
    obs::FlightRecorder::Default().Record(
        obs::RecorderEventType::kStageStamp,
        static_cast<uint16_t>(obs::KernelStage::kScatter),
        static_cast<uint32_t>(activity.size()));
    RankCandidates(goal_space, candidates, k, ws, out);
    obs::FlightRecorder::Default().Record(
        obs::RecorderEventType::kStageStamp,
        static_cast<uint16_t>(obs::KernelStage::kRank),
        static_cast<uint32_t>(candidates.size()));
    obs::FlightRecorder::Default().Record(
        obs::RecorderEventType::kStageStamp,
        static_cast<uint16_t>(obs::KernelStage::kEmit),
        static_cast<uint32_t>(out.size()));
  }
  span.Annotate("emitted", out.size());
  if (stop != nullptr && stop->StopRequested()) {
    span.Annotate("stopped_early", true);
  }
}

// The shard's side of the sharded fan-out. Goal-colocated partitioning
// puts every implementation of a goal on the goal's shard, so the scan over
// the shard's GS(H) slice sees everything the unsharded scan sees for those
// goals: the same profile entries and the same per-goal terms, which the
// root sums across the disjoint slices.
void BestMatchRecommender::ScanShard(util::IdSpan activity,
                                     const util::StopToken* stop,
                                     QueryWorkspace& ws,
                                     BestMatchShardProfile& out) const {
  // Weights scale dimensions by arbitrary doubles, which breaks the
  // exact-integer partial-sum argument the root merge rests on.
  GOALREC_CHECK(options_.goal_weights == nullptr);
  DeriveSpaces(activity, ws, out.candidates);
  ScanGoals(activity, ws.goal_space, stop, ws);
  out.goals.assign(ws.goal_space.begin(), ws.goal_space.end());
  out.h.assign(ws.profile.begin(), ws.profile.end());
  out.partials.clear();
  for (model::ActionId a : ws.partial_actions) {
    const QueryWorkspace::ActionPartial& e = ws.partials[a];
    out.partials.push_back(BestMatchActionPartial{a, e.x, e.y});
  }
}

}  // namespace goalrec::core
