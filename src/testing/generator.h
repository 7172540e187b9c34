#ifndef GOALREC_TESTING_GENERATOR_H_
#define GOALREC_TESTING_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/library.h"
#include "model/types.h"
#include "util/random.h"

// Seeded random library/activity generation for the differential oracle.
// Following the graph-analysis view of recommender evaluation (Mirza et al.,
// "Evaluating Recommendation Algorithms by Graph Analysis"), correctness is
// checked structurally on generated hypergraphs with controlled shape rather
// than only on hand-written fixtures. The shape knobs deliberately cover the
// degenerate structures that hand fixtures tend to miss:
//
//   * empty implementations (p = (g, ∅): legal, inert, must never crash),
//   * singleton implementations (|A| = 1: no co-occurrence, AS(a) = ∅),
//   * activities that fully cover an implementation (H ⊇ A: the complete-
//     implementation skip paths in Focus),
//   * disconnected actions (interned but used by no implementation: the
//     unseen-action guards in the space queries),
//   * power-law action popularity (a few hub actions in most
//     implementations, a long tail in few — the connectivity profile the
//     paper reports for FoodMart/43Things).
//
// Everything is driven by util::Rng, so a (shape, seed) pair identifies a
// case bit-for-bit across runs and platforms — the fuzz driver prints the
// seed, and the oracle tests sweep fixed seed ranges.

namespace goalrec::testing {

/// Shape of a generated library. Defaults give a small, well-connected
/// library with a sprinkle of every degenerate structure.
struct LibraryShape {
  uint32_t num_goals = 8;
  uint32_t num_actions = 30;
  /// Implementations per goal, uniform in [min, max]. A goal with zero
  /// implementations is legal (it simply never appears in any space).
  uint32_t min_impls_per_goal = 1;
  uint32_t max_impls_per_goal = 4;
  /// The first `fat_goals` goals get exactly `fat_goal_impls`
  /// implementations each instead of a draw from [min, max].
  uint32_t fat_goals = 0;
  uint32_t fat_goal_impls = 0;
  /// Actions per (non-degenerate) implementation, uniform in [min, max];
  /// duplicates drawn for one implementation collapse, so the realised size
  /// may be smaller.
  uint32_t min_actions_per_impl = 1;
  uint32_t max_actions_per_impl = 6;
  /// Zipf exponent for action popularity; 0 = uniform. Which actions are
  /// popular is itself randomised per library.
  double zipf_exponent = 0.8;
  /// Probability that an implementation is degenerate-empty.
  double empty_impl_prob = 0.03;
  /// Probability that an implementation is degenerate-singleton.
  double singleton_impl_prob = 0.07;
  /// Fraction of actions interned into the vocabulary but excluded from the
  /// implementation sampling pool (disconnected actions).
  double disconnected_action_fraction = 0.1;
};

/// Shape of a generated user activity relative to a library.
struct ActivityShape {
  /// Activity size, uniform in [min, max] (before dedup; empty is legal).
  uint32_t min_size = 0;
  uint32_t max_size = 8;
  /// Probability that the activity is seeded with the FULL action set of a
  /// random implementation (the H ⊇ A degenerate case), then extended with
  /// random extra actions.
  double superset_prob = 0.15;
};

/// One differential test case: a library, an activity and a recommendation
/// budget. The same struct is what the shrinker minimises and the repro file
/// serialises.
struct OracleCase {
  model::ImplementationLibrary library;
  model::Activity activity;
  size_t k = 10;
};

/// Shape of a full case: library + activity + k range. k is drawn uniformly
/// in [min_k, max_k]; set max_k above num_actions to exercise the unbounded
/// path.
struct CaseShape {
  LibraryShape library;
  ActivityShape activity;
  uint32_t min_k = 1;
  uint32_t max_k = 12;
};

/// Generates a library of the given shape. Draws from `rng`.
model::ImplementationLibrary GenerateLibrary(const LibraryShape& shape,
                                             util::Rng& rng);

/// Generates an activity over `library`'s action vocabulary (including its
/// disconnected actions). Draws from `rng`.
model::Activity GenerateActivity(const model::ImplementationLibrary& library,
                                 const ActivityShape& shape, util::Rng& rng);

/// Generates a complete case from a seed. Equal (shape, seed) pairs produce
/// identical cases.
OracleCase GenerateCase(const CaseShape& shape, uint64_t seed);

/// The shape sweep the oracle tests and the fuzz driver cycle through:
/// tiny/medium libraries, a degenerate-heavy mix, a hub-dominated popularity
/// skew, a sparse barely-connected one, and five kernel-adversarial shapes —
/// vocabulary and |H| sizes straddling the 64-bit-word / SIMD-lane
/// boundaries, an all-actions-popular maximal-connectivity mix, a
/// singleton-implementation "tie storm" where nearly all scores collide and
/// only the documented tie order distinguishes outputs, and "fat goals":
/// a few goals with dozens of implementations, most sharing no action with
/// H, over a vocabulary whose postings lie mostly outside GS(H).
std::vector<CaseShape> DefaultCaseShapes();

}  // namespace goalrec::testing

#endif  // GOALREC_TESTING_GENERATOR_H_
