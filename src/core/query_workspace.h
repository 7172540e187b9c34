#ifndef GOALREC_CORE_QUERY_WORKSPACE_H_
#define GOALREC_CORE_QUERY_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/recommender.h"
#include "model/types.h"
#include "util/dense_vector.h"
#include "util/top_k.h"

// Pooled per-query scratch memory. Every buffer the query path needs — the
// derived spaces IS(H)/GS(H)/AS(H)−H, the Focus implementation ranking, the
// Breadth score accumulator, Best Match's profile and partials, the top-k heap
// — lives here and is *reused* across queries: after a few warm-up queries
// the capacities stabilise and the steady-state per-query path performs zero
// heap allocations (bench/micro_snapshot asserts this).
//
// A workspace is single-threaded state. One workspace backs at most one live
// QueryContext at a time (creating a context overwrites the space buffers);
// the serving engine leases one per query from a QueryWorkspacePool, the
// evaluation suite keeps one per worker thread.

namespace goalrec::core {

class QueryWorkspace {
 public:
  // --- Epoch-stamped dense action marker -------------------------------
  //
  // A membership/accumulator array over action ids that resets in O(1): each
  // pass bumps the epoch, and a slot is live only when its stamp equals the
  // current epoch. Replaces the per-query unordered_map in Breadth and the
  // sorted `emitted` vector in Focus without ever clearing O(num_actions)
  // memory per query.

  /// Starts a fresh marker/score pass over action ids < `num_actions`.
  /// Invalidates all marks and scores of the previous pass.
  void BeginActionPass(size_t num_actions) {
    if (action_epoch_.size() < num_actions) action_epoch_.resize(num_actions, 0);
    if (action_score_.size() < num_actions) action_score_.resize(num_actions, 0.0);
    if (++epoch_ == 0) {
      // uint32 wraparound (once per ~4B passes): stale stamps could collide
      // with a recycled epoch value, so ground the whole array.
      std::fill(action_epoch_.begin(), action_epoch_.end(), 0u);
      epoch_ = 1;
    }
    touched_.clear();
  }

  /// Marks `a`; returns true iff it was unmarked in the current pass.
  bool TestAndMark(model::ActionId a) {
    if (action_epoch_[a] == epoch_) return false;
    action_epoch_[a] = epoch_;
    return true;
  }

  bool Marked(model::ActionId a) const { return action_epoch_[a] == epoch_; }

  /// Adds `delta` to the pass-local score of `a` (0 at first touch). First
  /// touches are recorded in touched() for later iteration.
  void AddScore(model::ActionId a, double delta) {
    if (action_epoch_[a] != epoch_) {
      action_epoch_[a] = epoch_;
      action_score_[a] = delta;
      touched_.push_back(a);
      return;
    }
    action_score_[a] += delta;
  }

  double ScoreOf(model::ActionId a) const {
    return action_epoch_[a] == epoch_ ? action_score_[a] : 0.0;
  }

  /// Actions touched by AddScore this pass, in first-touch order.
  const model::IdSet& touched() const { return touched_; }

  // --- Epoch-stamped H-membership marker --------------------------------
  //
  // A second, independent marker over action ids dedicated to "is this
  // action in the activity H?". It replaces the per-action binary search
  // into the sorted activity on the kernels' emission paths, and being a
  // separate epoch array it survives BeginActionPass (the kernels mark H
  // once up front, then run score/emission passes freely).

  /// Starts a fresh H-membership pass over action ids < `num_actions`.
  void BeginHMark(size_t num_actions) {
    if (h_epoch_.size() < num_actions) h_epoch_.resize(num_actions, 0);
    if (++h_mark_ == 0) {
      std::fill(h_epoch_.begin(), h_epoch_.end(), 0u);
      h_mark_ = 1;
    }
  }

  void MarkH(model::ActionId a) { h_epoch_[a] = h_mark_; }

  bool InH(model::ActionId a) const { return h_epoch_[a] == h_mark_; }

  // --- Epoch-stamped per-implementation counter -------------------------
  //
  // The kernels' scatter pass: walking the ImplsOfAction postings of every
  // h ∈ H and bumping a per-implementation counter computes |A_p ∩ H| for
  // every implementation in IS(H) in one sweep — no per-implementation
  // sorted intersection. First touches are recorded so only implementations
  // actually in IS(H) are visited afterwards.

  /// Starts a fresh counter pass over implementation ids < `num_impls`.
  void BeginImplPass(size_t num_impls) {
    if (impl_epoch_.size() < num_impls) {
      impl_epoch_.resize(num_impls, 0);
      impl_count_.resize(num_impls, 0);
    }
    if (++impl_mark_ == 0) {
      std::fill(impl_epoch_.begin(), impl_epoch_.end(), 0u);
      impl_mark_ = 1;
    }
    touched_impls_.clear();
  }

  /// Adds 1 to the pass-local counter of `p` (0 at first touch).
  void BumpImplCount(model::ImplId p) {
    if (impl_epoch_[p] != impl_mark_) {
      impl_epoch_[p] = impl_mark_;
      impl_count_[p] = 1;
      touched_impls_.push_back(p);
      return;
    }
    ++impl_count_[p];
  }

  uint32_t ImplCountOf(model::ImplId p) const {
    return impl_epoch_[p] == impl_mark_ ? impl_count_[p] : 0;
  }

  /// Implementations touched by BumpImplCount this pass — exactly IS(H)
  /// when the scatter walked every posting of H — in first-touch order.
  const model::IdSet& touched_impls() const { return touched_impls_; }

  // --- Epoch-stamped goal marker ---------------------------------------
  //
  // Deduplicates GS(H) while Best Match collects it from the scatter.

  /// Starts a fresh goal-marker pass over goal ids < `num_goals`.
  void BeginGoalPass(size_t num_goals) {
    if (goal_epoch_.size() < num_goals) goal_epoch_.resize(num_goals, 0);
    if (++goal_mark_ == 0) {
      std::fill(goal_epoch_.begin(), goal_epoch_.end(), 0u);
      goal_mark_ = 1;
    }
  }

  /// Marks `g`; returns true iff it was unmarked in the current pass.
  bool TestAndMarkGoal(model::GoalId g) {
    if (goal_epoch_[g] == goal_mark_) return false;
    goal_epoch_[g] = goal_mark_;
    return true;
  }

  // --- Reusable buffers -------------------------------------------------
  //
  // QueryContext::Create fills the four space buffers; the spans on the
  // context point into them, so they must not be mutated while a context
  // built from this workspace is in use. Everything below `candidates` is
  // free strategy scratch.

  model::IdSet activity;    ///< normalised H
  model::IdSet impl_space;  ///< IS(H)
  model::IdSet goal_space;  ///< GS(H)
  model::IdSet candidates;  ///< AS(H) − H

  model::IdSet scratch;                        ///< general id scratch
  std::vector<RankedImplementation> ranked;    ///< Focus ranking buffer
  util::ScoredTopK top_k;                      ///< Reset(k) before use
  util::DenseVector profile;                   ///< Best Match H⃗
  util::DenseVector action_vec;                ///< Best Match a⃗ scratch
  /// Best Match goal-major accumulator (best_match.cc), indexed by action
  /// id: `hits` of the goal slot that `stamp` names and the metric partials
  /// folded so far. Stamps only grow, so an entry is live only when its
  /// stamp is at least the pass's base; stale entries need no reset.
  struct ActionPartial {
    uint32_t stamp = 0;
    uint32_t hits = 0;
    double x = 0.0;
    double y = 0.0;
  };
  std::vector<ActionPartial> partials;
  model::IdSet partial_actions;  ///< live non-H partials, first-touch order

  /// Starts a partial pass over action ids < `num_actions` that uses the
  /// stamps base + 1 .. base + `slots`; returns base.
  uint32_t BeginPartialPass(size_t num_actions, size_t slots) {
    if (partials.size() < num_actions) partials.resize(num_actions);
    if (partial_stamp_ > 0xFFFFFFFEu - slots) {
      for (ActionPartial& e : partials) e.stamp = 0;
      partial_stamp_ = 0;
    }
    const uint32_t base = partial_stamp_ + 1;
    partial_stamp_ = base + static_cast<uint32_t>(slots);
    partial_actions.clear();
    return base;
  }
  /// Breadth's dense score accumulator: used instead of the epoch-stamped
  /// sparse array when the scatter's credit mass is large enough that an
  /// O(num_actions) assign-reset plus unconditional adds beats per-credit
  /// epoch branches (breadth.h, SetBreadthDenseCreditMultiplier).
  std::vector<double> dense_score;
  RecommendationList result;                   ///< callers' reusable out-list

  /// Why-was-this-query-slow counters, accumulated by the scoring kernels
  /// and read by the serving engine's tail exemplar capture. Plain fields
  /// (a couple of integer bumps per candidate); the engine zeroes them
  /// before each rung attempt.
  struct KernelStats {
    uint32_t dense_fallbacks = 0;  ///< candidates scored via the dense path
    uint32_t slots_touched = 0;    ///< (action, goal) folds in the scan
    uint32_t dense_resets = 0;     ///< Breadth dense-accumulator activations
  };
  KernelStats kernel_stats;

 private:
  uint32_t epoch_ = 0;
  std::vector<uint32_t> action_epoch_;
  std::vector<double> action_score_;
  model::IdSet touched_;
  uint32_t h_mark_ = 0;
  std::vector<uint32_t> h_epoch_;
  uint32_t impl_mark_ = 0;
  std::vector<uint32_t> impl_epoch_;
  std::vector<uint32_t> impl_count_;
  model::IdSet touched_impls_;
  uint32_t goal_mark_ = 0;
  std::vector<uint32_t> goal_epoch_;
  uint32_t partial_stamp_ = 0;
};

/// A mutex-guarded free list of workspaces. Acquire() hands out an RAII
/// lease; returning a workspace keeps its warmed-up buffers for the next
/// query. The pool grows on demand (a burst of concurrent queries mints new
/// workspaces) and never shrinks — capacity is bounded by the engine's
/// admission-controlled concurrency limit.
class QueryWorkspacePool {
 public:
  class Lease {
   public:
    Lease() = default;
    Lease(QueryWorkspacePool* pool, std::unique_ptr<QueryWorkspace> workspace)
        : pool_(pool), workspace_(std::move(workspace)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept {
      Release();
      pool_ = other.pool_;
      workspace_ = std::move(other.workspace_);
      other.pool_ = nullptr;
      return *this;
    }
    ~Lease() { Release(); }

    QueryWorkspace* get() const { return workspace_.get(); }
    QueryWorkspace& operator*() const { return *workspace_; }
    QueryWorkspace* operator->() const { return workspace_.get(); }
    explicit operator bool() const { return workspace_ != nullptr; }

   private:
    void Release();

    QueryWorkspacePool* pool_ = nullptr;
    std::unique_ptr<QueryWorkspace> workspace_;
  };

  /// Pops an idle workspace, or mints a fresh one if none is idle.
  Lease Acquire();

  /// Workspaces currently sitting idle in the pool.
  size_t idle() const;

  /// Total workspaces ever minted (high-water concurrency mark).
  size_t created() const;

 private:
  friend class Lease;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<QueryWorkspace>> free_;
  size_t created_ = 0;
};

}  // namespace goalrec::core

#endif  // GOALREC_CORE_QUERY_WORKSPACE_H_
