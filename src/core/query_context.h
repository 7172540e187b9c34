#ifndef GOALREC_CORE_QUERY_CONTEXT_H_
#define GOALREC_CORE_QUERY_CONTEXT_H_

#include <memory>
#include <span>

#include "core/query_workspace.h"
#include "model/library.h"
#include "model/types.h"
#include "obs/trace.h"
#include "util/deadline.h"

// Shared per-query state: the derived spaces IS(H), GS(H) and AS(H) − H,
// computed once by a sort-and-dedup pass into a private QueryWorkspace that
// the context co-owns (the spaces are spans into it). The allocating
// Recommend of Focus and Best Match, and so the session path, build one.
// Callers that answer one activity with several strategies (the evaluation
// Suite, serving) lease one QueryWorkspace instead and call each strategy's
// RecommendPooled on it; those kernels scatter postings and never sort.

namespace goalrec::core {

struct QueryContext {
  const model::ImplementationLibrary* library = nullptr;
  /// Normalised activity H, ascending.
  util::IdSpan activity;
  /// IS(activity), ascending.
  std::span<const model::ImplId> impl_space;
  /// GS(activity), ascending.
  std::span<const model::GoalId> goal_space;
  /// AS(activity) − activity, ascending.
  util::IdSpan candidates;
  /// The workspace the spans point into; also the strategies' scratch arena.
  /// Never null for a Create-built context. The space buffers it holds must
  /// not be rewritten (e.g. by creating another context on it) while this
  /// context is in use; everything else on the workspace is fair game.
  QueryWorkspace* workspace = nullptr;
  /// Optional cooperative stop (deadline and/or cancellation), polled inside
  /// the strategy scoring loops. Null means unbounded. Not owned; must
  /// outlive the context. When the token fires mid-query the strategies
  /// return best-effort partial lists — callers that set a stop must check
  /// stop->StopRequested() before trusting a result (the serving engine
  /// discards such answers and falls down its degradation ladder).
  const util::StopToken* stop = nullptr;
  /// Per-query trace of the sampled query this context belongs to, or null
  /// (the overwhelmingly common case). Captured from obs::CurrentTrace() by
  /// Create — the serving engine activates the trace around each rung — so
  /// the strategies can annotate spans without a new parameter on every
  /// signature. Not owned; must outlive the context.
  obs::Trace* trace = nullptr;
  /// Keeps the private workspace the spans point into alive for the
  /// lifetime of the context (and its copies).
  std::shared_ptr<QueryWorkspace> owned_workspace;

  /// Computes all three spaces into a freshly allocated private workspace.
  /// `library` must outlive the context. `stop`, when given, is stored on
  /// the context and also polled while the spaces themselves are being built
  /// (space construction is O(|IS(H)|) and counts against the query's
  /// budget). When a trace is active on this thread, records a "spaces" span
  /// with |IS(H)|, |GS(H)| and |AS(H)−H|.
  static QueryContext Create(const model::ImplementationLibrary& library,
                             model::Activity activity,
                             const util::StopToken* stop = nullptr);
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_QUERY_CONTEXT_H_
