#ifndef GOALREC_TESTING_REFERENCE_H_
#define GOALREC_TESTING_REFERENCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/best_match.h"
#include "model/library.h"
#include "model/types.h"

// Reference oracle: a deliberately naive, loop-and-set transcription of the
// paper's four scoring formulas and space definitions, used by the
// differential tests (tests/oracle/) and the goalrec_fuzz tool to check the
// optimized strategies in src/core/ against an independent implementation.
//
//   completeness(g, A, H) = |A ∩ H| / |A|                      (Eq. 3)
//   closeness(g, A, H)    = 1 / |A − H|                        (Eq. 4)
//   sc(a, H, Breadth)     = Σ_{(g,A): A∩H≠∅, a∈A} |A ∩ H|      (Eq. 6)
//   Best Match            = ascending dist(H⃗, a⃗) over GS(H)    (Eqs. 8–10)
//
// Design rules, intentionally the opposite of src/core/'s:
//   * zero shared code with src/core/ and util/set_ops — sets are std::set,
//     every space is derived by scanning ALL implementations (no inverted
//     indexes), every score is computed independently per action;
//   * written for readability over speed: the asymptotics are terrible and
//     that is fine, the oracle runs on generated cases of bounded size;
//   * deterministic total order everywhere: score descending, then ascending
//     action id (for Focus: the exact emission order of Algorithm 1 —
//     implementations best-first with impl id breaking score ties, missing
//     actions of each in ascending id order).
//
// Arithmetic note: without goal weights every strategy's score is either a
// single IEEE division (Focus) or a sum of small integers (Breadth, Best
// Match vector entries), so the reference reproduces the optimized scores
// bit-for-bit and the differential comparison can demand exact equality.
// The reference covers all six unweighted Best Match variants
// (representation × metric); it takes core::BestMatchOptions only as the
// name of the variant, never calling into src/core/.

namespace goalrec::testing {

/// One recommendation of the reference oracle. Mirrors core::ScoredAction
/// structurally but is a distinct type so the oracle cannot accidentally
/// share comparison helpers with the code under test.
struct ReferenceItem {
  model::ActionId action = model::kInvalidId;
  double score = 0.0;

  friend bool operator==(const ReferenceItem&, const ReferenceItem&) = default;
};

using ReferenceList = std::vector<ReferenceItem>;

enum class ReferenceFocusVariant {
  kCompleteness,  // Focus_cmp
  kCloseness,     // Focus_cl
};

// --- naive space derivation (Definitions 4.1/4.2) ---------------------------

/// IS(H): every implementation sharing at least one action with `activity`,
/// found by scanning all implementations. Ascending impl id.
std::vector<model::ImplId> ReferenceImplementationSpace(
    const model::ImplementationLibrary& library,
    const model::Activity& activity);

/// GS(H): goals fulfilled by some implementation of IS(H). Ascending.
std::vector<model::GoalId> ReferenceGoalSpace(
    const model::ImplementationLibrary& library,
    const model::Activity& activity);

/// AS(H) = ∪_{a∈H} AS(a) with AS(a) = { b ≠ a : some implementation contains
/// both a and b }, transcribed directly from Definition 4.2. Ascending.
std::vector<model::ActionId> ReferenceActionSpace(
    const model::ImplementationLibrary& library,
    const model::Activity& activity);

/// AS(H) − H: the recommendable candidates. Ascending.
std::vector<model::ActionId> ReferenceCandidates(
    const model::ImplementationLibrary& library,
    const model::Activity& activity);

// --- naive scoring formulas -------------------------------------------------

/// Eq. 3. Zero for an empty implementation activity.
double ReferenceCompleteness(std::span<const model::ActionId> impl_actions,
                             const model::Activity& activity);

/// Eq. 4. Zero when the implementation is already complete (|A − H| = 0),
/// matching the optimized convention that complete implementations are
/// skipped rather than scored as infinite.
double ReferenceCloseness(std::span<const model::ActionId> impl_actions,
                          const model::Activity& activity);

/// Eq. 6, evaluated per action over all implementations.
double ReferenceBreadthScore(const model::ImplementationLibrary& library,
                             model::ActionId action,
                             const model::Activity& activity);

/// Eq. 8 embedding of `action` over the sorted `goal_space`: entry i counts
/// the implementations of goal_space[i] containing the action.
std::vector<double> ReferenceActionGoalVector(
    const model::ImplementationLibrary& library, model::ActionId action,
    const std::vector<model::GoalId>& goal_space);

/// Eq. 9 profile H⃗ = Σ_{a∈H} a⃗ over the sorted `goal_space`.
std::vector<double> ReferenceProfile(
    const model::ImplementationLibrary& library,
    const model::Activity& activity,
    const std::vector<model::GoalId>& goal_space);

// --- full strategies --------------------------------------------------------

/// Algorithm 1 (Focus): rank IS(H) implementations with at least one missing
/// action by the variant's score, emit missing actions best-implementation
/// first. Up to `k` items.
ReferenceList ReferenceFocus(const model::ImplementationLibrary& library,
                             ReferenceFocusVariant variant,
                             const model::Activity& activity, size_t k);

/// Eq. 6 ranking: every non-performed action with positive Breadth score,
/// score descending, action id ascending. Up to `k` items.
ReferenceList ReferenceBreadth(const model::ImplementationLibrary& library,
                               const model::Activity& activity, size_t k);

/// Algorithms 3–4 (Best Match): candidates ranked by ascending distance
/// between the profile and their goal vectors — Eq. 8 implementation
/// counts or Eq. 7 booleans, Euclidean, Manhattan or cosine distance as
/// `options` says (paper defaults: counts, Euclidean); score is the negated
/// distance. `options.goal_weights` must be null. Up to `k` items.
ReferenceList ReferenceBestMatch(const model::ImplementationLibrary& library,
                                 const model::Activity& activity, size_t k,
                                 const core::BestMatchOptions& options = {});

}  // namespace goalrec::testing

#endif  // GOALREC_TESTING_REFERENCE_H_
