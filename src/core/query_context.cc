#include "core/query_context.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/set_ops.h"

namespace goalrec::core {
namespace {

// Candidate-set size distributions: the load-bearing workload descriptors
// for capacity planning (they bound every strategy's per-query work).
struct SpaceMetrics {
  obs::Histogram* impl_space;
  obs::Histogram* goal_space;
  obs::Histogram* candidates;

  static const SpaceMetrics& Get() {
    static const SpaceMetrics metrics = [] {
      obs::MetricRegistry& registry = obs::MetricRegistry::Default();
      std::vector<double> bounds = obs::ExponentialBuckets(1.0, 4.0, 12);
      SpaceMetrics m;
      m.impl_space = registry.GetHistogram(
          "goalrec_query_impl_space_size", bounds, {},
          "|IS(H)| per QueryContext");
      m.goal_space = registry.GetHistogram(
          "goalrec_query_goal_space_size", bounds, {},
          "|GS(H)| per QueryContext");
      m.candidates = registry.GetHistogram(
          "goalrec_query_candidates_size", bounds, {},
          "|AS(H) - H| per QueryContext");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

QueryContext QueryContext::Create(
    const model::ImplementationLibrary& library, model::Activity activity,
    const util::StopToken* stop) {
  auto owned = std::make_shared<QueryWorkspace>();
  QueryWorkspace& ws = *owned;
  ws.activity = std::move(activity);
  util::Normalize(ws.activity);
  obs::ScopedSpan span(obs::CurrentTrace(), "spaces");
  QueryContext context;
  context.library = &library;
  context.workspace = &ws;
  context.owned_workspace = std::move(owned);
  context.stop = stop;
  context.trace = obs::CurrentTrace();

  // IS(H): union of the A-GI postings of every performed action.
  for (model::ActionId a : ws.activity) {
    if (a >= library.num_actions()) continue;  // action unseen by the library
    std::span<const model::ImplId> postings = library.ImplsOfAction(a);
    ws.impl_space.insert(ws.impl_space.end(), postings.begin(),
                         postings.end());
  }
  util::Normalize(ws.impl_space);

  // Goal space and candidate actions both derive from the implementation
  // space; reuse it instead of re-probing the A-GI index.
  for (model::ImplId p : ws.impl_space) {
    if (stop != nullptr && stop->ShouldStop()) break;  // partial is discarded
    ws.goal_space.push_back(library.GoalOf(p));
    std::span<const model::ActionId> impl_actions = library.ActionsOf(p);
    ws.scratch.insert(ws.scratch.end(), impl_actions.begin(),
                      impl_actions.end());
  }
  util::Normalize(ws.goal_space);
  util::Normalize(ws.scratch);
  // Candidates: union of the implementations' actions minus the activity.
  // (AS(H)'s self-exclusion subtleties only affect members of H, which the
  // difference removes anyway.)
  util::DifferenceInto(ws.scratch, ws.activity, ws.candidates);

  context.activity = ws.activity;
  context.impl_space = ws.impl_space;
  context.goal_space = ws.goal_space;
  context.candidates = ws.candidates;

  const SpaceMetrics& metrics = SpaceMetrics::Get();
  metrics.impl_space->Observe(static_cast<double>(context.impl_space.size()));
  metrics.goal_space->Observe(static_cast<double>(context.goal_space.size()));
  metrics.candidates->Observe(static_cast<double>(context.candidates.size()));
  span.Annotate("impl_space", context.impl_space.size());
  span.Annotate("goal_space", context.goal_space.size());
  span.Annotate("candidates", context.candidates.size());
  if (stop != nullptr && stop->StopRequested()) {
    span.Annotate("stopped_early", true);
  }
  return context;
}

}  // namespace goalrec::core
