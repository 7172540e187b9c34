#ifndef GOALREC_MODEL_LIBRARY_H_
#define GOALREC_MODEL_LIBRARY_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "model/types.h"
#include "model/vocabulary.h"

// The association-based goal model of the paper (§4): a goal implementation
// library L = { p = (g, A) } viewed as a hypergraph whose hyperedges are the
// activities A, labelled with the goal g they fulfil. The library maintains
// the paper's four index structures:
//
//   GI-A-idx : implementation id -> the sorted set of action ids it contains
//   GI-G-idx : implementation id -> the goal id it fulfils
//   A-GI-idx : action id -> the sorted list of implementation ids it occurs in
//   G-GI-idx : goal id  -> the sorted list of implementation ids that fulfil it
//
// and answers the space queries of Definitions 4.1/4.2 (Equations 1–2):
// implementation space IS(H), goal space GS(H) and action space AS(H) of a
// user activity H.
//
// Storage layout. Every index is a flat CSR (compressed sparse row) pair —
// one contiguous offsets[] array and one contiguous postings arena — built
// once by LibraryBuilder::Build(). Accessors return spans into the arenas;
// nothing on the query path chases per-row heap pointers, and a built
// library is a handful of flat allocations that never mutate (docs/model.md
// describes the layout; serve/snapshot_manager.h builds on the immutability
// to hot-swap libraries under live traffic).

namespace goalrec::model {

/// One goal implementation p = (g, A) as an owning record. This is the
/// builder-side (and shrinker-side) representation; a built library stores
/// implementations in its CSR arena and hands out ImplementationView.
struct Implementation {
  GoalId goal = kInvalidId;
  IdSet actions;  // sorted, deduplicated
};

/// Read-only view of one implementation inside a built library. `actions`
/// points into the library's postings arena and is valid for the library's
/// lifetime.
struct ImplementationView {
  GoalId goal = kInvalidId;
  std::span<const ActionId> actions;
};

class ImplementationLibrary;

/// Array-level assembly of an ImplementationLibrary from rows that are
/// already valid: action spans strictly ascending, every id in range of the
/// vocabularies handed in. The one row-copy path shared by
/// LibraryBuilder::Build(), the delta fold (model/merged_view.cc) and the
/// shard split (model/sharding.cc), so all three produce bit-identical
/// libraries from the same rows. Rows are not re-checked here; run
/// ValidateLibrary on anything untrusted.
class LibraryRowWriter {
 public:
  /// `rows` / `postings` pre-size the GI arenas (exact totals avoid any
  /// regrowth; they are hints, not limits).
  LibraryRowWriter(Vocabulary actions, Vocabulary goals, size_t rows,
                   size_t postings);

  /// Appends implementation (goal, actions) with the next id.
  void AppendRow(GoalId goal, std::span<const ActionId> actions);

  /// Builds the derived indexes and returns the library.
  ImplementationLibrary Finish() &&;

 private:
  Vocabulary actions_;
  Vocabulary goals_;
  std::vector<uint32_t> impl_offsets_;
  std::vector<ActionId> impl_actions_;
  std::vector<GoalId> impl_goals_;
};

/// Accumulates implementations and interns names, then produces an immutable
/// ImplementationLibrary. The builder is single-use: Build() consumes it.
class LibraryBuilder {
 public:
  LibraryBuilder() = default;

  /// Seeds a builder with an existing library's vocabularies and
  /// implementations (ids preserved), for the extend-and-rebuild pattern:
  /// libraries are immutable, so growing one means copying it into a
  /// builder, adding, and building again — O(total postings). The serving
  /// layer pairs this with SnapshotManager to swap the rebuilt library in
  /// under live queries.
  static LibraryBuilder FromLibrary(const ImplementationLibrary& library);

  /// Interns an action name (idempotent).
  ActionId InternAction(std::string_view name);

  /// Interns a goal name (idempotent).
  GoalId InternGoal(std::string_view name);

  /// Pre-sizes the vocabularies (used by the loaders, which know the file's
  /// cardinality up front).
  void ReserveActions(size_t n);
  void ReserveGoals(size_t n);

  /// Adds implementation (goal, actions) by name. Duplicate action names
  /// within one implementation are collapsed. Empty activities are legal but
  /// inert (they can never join any implementation space). Returns the new
  /// implementation id.
  ImplId AddImplementation(std::string_view goal,
                           const std::vector<std::string>& actions);

  /// Adds an implementation from already-interned ids. `actions` need not be
  /// sorted. Every id must have been interned. Returns the new impl id.
  ImplId AddImplementationIds(GoalId goal, IdSet actions);

  /// Span overload: copies `actions` (e.g. a posting span of another
  /// library) into an owned set first.
  ImplId AddImplementationIds(GoalId goal, std::span<const ActionId> actions) {
    return AddImplementationIds(goal, IdSet(actions.begin(), actions.end()));
  }

  uint32_t num_implementations() const {
    return static_cast<uint32_t>(impls_.size());
  }

  /// Vocabulary sizes so far (the validated loaders enforce their hard caps
  /// against these as they go).
  uint32_t num_actions() const { return actions_.size(); }
  uint32_t num_goals() const { return goals_.size(); }

  /// Finalises the CSR indexes and produces the immutable library.
  ImplementationLibrary Build() &&;

 private:
  Vocabulary actions_;
  Vocabulary goals_;
  std::vector<Implementation> impls_;
};

/// Immutable goal model. Thread-safe for concurrent reads.
class ImplementationLibrary {
 public:
  /// An empty library (no actions, goals or implementations). Useful as a
  /// placeholder before assigning the result of LibraryBuilder::Build().
  ImplementationLibrary() = default;

  // --- structure ------------------------------------------------------------

  uint32_t num_actions() const { return actions_.size(); }
  uint32_t num_goals() const { return goals_.size(); }
  uint32_t num_implementations() const {
    return static_cast<uint32_t>(impl_goals_.size());
  }

  /// GI-A-idx + GI-G-idx: a view of the implementation record for `id`.
  ImplementationView implementation(ImplId id) const {
    return ImplementationView{GoalOf(id), ActionsOf(id)};
  }

  /// GI-G-idx: the goal fulfilled by implementation `id`.
  GoalId GoalOf(ImplId id) const;

  /// GI-A-idx: the activity (sorted action set) of implementation `id`, as a
  /// span into the postings arena.
  std::span<const ActionId> ActionsOf(ImplId id) const;

  /// |A| of implementation `id` — an O(1) offsets difference.
  uint32_t ImplActionCount(ImplId id) const;

  /// |A| of implementation `id` as a double, precomputed at build time so
  /// the Focus completeness kernel divides without an int→double conversion
  /// in the loop. Bit-identical to static_cast<double>(ImplActionCount(id)).
  double ImplActionCountD(ImplId id) const;

  /// Largest |A| across all implementations (0 for an empty library).
  uint32_t max_implementation_size() const { return max_impl_size_; }

  /// Precomputed 1.0 / r for r ≤ max_implementation_size(); Reciprocal(0)
  /// is 0.0. Each entry is the exact IEEE quotient, so Focus closeness
  /// (1 / |A − H|) reads the table instead of dividing per implementation
  /// and stays bit-identical to the division it replaces.
  double Reciprocal(uint32_t r) const;

  /// A-GI-idx: ids of all implementations where action `a` contributes,
  /// sorted ascending. Empty span for actions in no implementation.
  std::span<const ImplId> ImplsOfAction(ActionId a) const;

  /// G-GI-idx: ids of all implementations of goal `g`, sorted ascending.
  std::span<const ImplId> ImplsOfGoal(GoalId g) const;

  // --- space queries (Definitions 4.1/4.2, Equations 1–2) --------------------
  //
  // These are the allocating convenience forms; the steady-state query path
  // goes through core::QueryContext::Create with a pooled
  // core::QueryWorkspace, which computes the same sets into reused buffers.

  /// IS(H): implementations sharing at least one action with `activity`.
  IdSet ImplementationSpace(const Activity& activity) const;

  /// GS(H): goals fulfilled by some implementation in IS(H).
  IdSet GoalSpace(const Activity& activity) const;

  /// GS(a) for a single action.
  IdSet GoalSpaceOfAction(ActionId a) const;

  /// AS(H) = ∪_{a∈H} AS(a), Definition 4.2: actions co-occurring with some
  /// action of `activity` in an implementation, where AS(a) excludes a
  /// itself. Members of H appear only when they co-occur with a *different*
  /// H action.
  IdSet ActionSpace(const Activity& activity) const;

  /// AS(a) for a single action.
  IdSet ActionSpaceOfAction(ActionId a) const;

  /// Candidate actions for recommendation: AS(H) − H (paper §3: recommend
  /// actions the user has not performed).
  IdSet CandidateActions(const Activity& activity) const;

  // --- vocabularies ----------------------------------------------------------

  const Vocabulary& actions() const { return actions_; }
  const Vocabulary& goals() const { return goals_; }

  // --- statistics -------------------------------------------------------------

  /// Action connectivity: average number of implementations an action
  /// participates in, over actions occurring in at least one implementation
  /// (the statistic the paper reports: 1.2K for FoodMart, 3.84 for 43T).
  double ActionConnectivity() const;

  /// Average number of actions per implementation.
  double AvgImplementationLength() const;

 private:
  friend class LibraryRowWriter;
  // Test-only access for corrupting a built library's indexes
  // (tests/model/validate_test.cc).
  friend class LibraryTestPeer;

  Vocabulary actions_;
  Vocabulary goals_;
  // GI-A-idx: actions of implementation p live at
  // impl_actions_[impl_offsets_[p] .. impl_offsets_[p + 1]).
  std::vector<uint32_t> impl_offsets_;
  std::vector<ActionId> impl_actions_;
  // GI-G-idx: one goal per implementation.
  std::vector<GoalId> impl_goals_;
  // A-GI-idx: postings of action a live at
  // action_postings_[action_offsets_[a] .. action_offsets_[a + 1]).
  std::vector<uint32_t> action_offsets_;
  std::vector<ImplId> action_postings_;
  // G-GI-idx: postings of goal g live at
  // goal_postings_[goal_offsets_[g] .. goal_offsets_[g + 1]).
  std::vector<uint32_t> goal_offsets_;
  std::vector<ImplId> goal_postings_;
  // Build-time precomputation for the scoring kernels (docs/model.md,
  // "Scoring kernels"): per-implementation |A| as a double, the largest
  // |A|, and a 1/r reciprocal table covering r ∈ [0, max_impl_size_].
  std::vector<double> impl_size_d_;
  std::vector<double> reciprocal_;
  uint32_t max_impl_size_ = 0;

  /// Builds the A-GI/G-GI inverted indexes and the kernel precomputation
  /// from the already-filled GI arenas (impl_offsets_/impl_actions_/
  /// impl_goals_) and vocabularies. Called once, by LibraryRowWriter.
  void BuildDerivedIndexes();
};

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_LIBRARY_H_
