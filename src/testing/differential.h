#ifndef GOALREC_TESTING_DIFFERENTIAL_H_
#define GOALREC_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/best_match.h"
#include "core/recommender.h"
#include "core/strategy.h"
#include "model/library.h"
#include "model/types.h"
#include "testing/reference.h"

// Differential harness: runs an optimized src/core/ strategy and its naive
// reference (testing/reference.h) on the same case and compares the ranked
// lists. Used by tests/oracle/ and the goalrec_fuzz driver; every hot-path
// PR (batching, caching, sharded scoring) runs against this harness.
//
// Comparison semantics. Both sides promise a deterministic total order
// (score descending, ties by ascending action id — for Focus, by the
// Algorithm 1 emission order), and their arithmetic is bit-identical (see
// reference.h), so the default comparison demands exact positional
// equality of (action, score) pairs. The tie-break-aware mode
// relaxes only the order *within* runs of equal scores — the relaxation to
// use when a refactor legitimately reorders tied actions (the contract pins
// scores, membership and score runs, not intra-tie order).

namespace goalrec::testing {

/// The Best Match variants `strategy` runs under: for kBestMatch all six,
/// {counts, boolean} × {euclidean, manhattan, cosine},
/// the paper default (counts, euclidean) first; for the others only the
/// default, which they ignore.
std::vector<core::BestMatchOptions> OracleVariants(core::Strategy strategy);

/// core::StrategyName, plus "/<representation>/<metric>" for a Best Match
/// variant other than the paper default ("BestMatch/boolean/cosine").
std::string OracleVariantName(core::Strategy strategy,
                              const core::BestMatchOptions& best_match = {});

/// A strategy with its Best Match variant, as named by OracleVariantName.
struct OracleVariant {
  core::Strategy strategy;
  core::BestMatchOptions best_match;
};

/// Inverse of OracleVariantName; nullopt for unknown names.
std::optional<OracleVariant> OracleVariantFromName(std::string_view name);

struct DiffOptions {
  /// When true, runs of equal scores must match element-for-element; when
  /// false (default) tied actions may appear in any order within their run.
  bool strict_order = false;
  /// Absolute score tolerance. 0 (default) demands bitwise-equal scores,
  /// which the strategies satisfy by construction.
  double score_tolerance = 0.0;
};

/// Outcome of one comparison. `detail` is a human-readable description of
/// the first divergence (empty on match); `entry_point` names the optimized
/// call that diverged: "Recommend", "RecommendPooled" (on the caller's
/// workspace) or "RecommendPooled(null)" (on a null workspace).
struct DiffOutcome {
  bool match = true;
  std::string detail;
  std::string entry_point;
};

/// Compares an optimized list against the reference list.
DiffOutcome CompareLists(const core::RecommendationList& optimized,
                         const ReferenceList& reference,
                         const DiffOptions& options = {});

/// Runs the optimized src/core/ strategy. Best Match runs as `best_match`
/// says (paper default unless given); the other strategies ignore it, here
/// and below.
core::RecommendationList RunOptimized(
    const model::ImplementationLibrary& library, core::Strategy strategy,
    const model::Activity& activity, size_t k,
    const core::BestMatchOptions& best_match = {});

/// Runs the optimized strategy through the pooled-workspace serving path
/// (RecommendPooled over a caller-owned, reused QueryWorkspace) — the
/// zero-allocation route a ServingEngine query takes. Must be bit-identical
/// to RunOptimized; tests/oracle/snapshot_test.cc holds it to that.
core::RecommendationList RunOptimizedPooled(
    const model::ImplementationLibrary& library, core::Strategy strategy,
    const model::Activity& activity, size_t k, core::QueryWorkspace& workspace,
    const core::BestMatchOptions& best_match = {});

/// Runs the naive reference for the same configuration.
ReferenceList RunReference(const model::ImplementationLibrary& library,
                           core::Strategy strategy,
                           const model::Activity& activity, size_t k,
                           const core::BestMatchOptions& best_match = {});

/// Optimized-vs-reference on one case; the workhorse of the oracle tests,
/// the fuzz loop and the shrinker's failure predicate. Diffs the allocating
/// Recommend, then, when `workspace` is given, RecommendPooled on it: the
/// kernel serving and evaluation run. Callers pass one workspace for a whole
/// case sequence, so state a kernel leaves stale in it shows up too. Last,
/// RecommendPooled with a null workspace (a fresh local one per call).
DiffOutcome DiffStrategy(const model::ImplementationLibrary& library,
                         core::Strategy strategy,
                         const model::Activity& activity, size_t k,
                         const DiffOptions& options = {},
                         const core::BestMatchOptions& best_match = {},
                         core::QueryWorkspace* workspace = nullptr);

}  // namespace goalrec::testing

#endif  // GOALREC_TESTING_DIFFERENTIAL_H_
