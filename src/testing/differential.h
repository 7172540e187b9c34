#ifndef GOALREC_TESTING_DIFFERENTIAL_H_
#define GOALREC_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/best_match.h"
#include "core/recommender.h"
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
// Algorithm 1 emission order), and without goal weights their arithmetic is
// bit-identical (see reference.h), so the default comparison demands exact
// positional equality of (action, score) pairs. The tie-break-aware mode
// relaxes only the order *within* runs of equal scores — the relaxation to
// use when a refactor legitimately reorders tied actions (the contract pins
// scores, membership and score runs, not intra-tie order).

namespace goalrec::testing {

/// The four paper strategies under differential test.
enum class OracleStrategy {
  kFocusCompleteness,  // Focus_cmp
  kFocusCloseness,     // Focus_cl
  kBreadth,
  kBestMatch,
};

/// All four, in a stable order.
std::vector<OracleStrategy> AllOracleStrategies();

/// Stable display/CLI name: "Focus_cmp", "Focus_cl", "Breadth", "BestMatch".
const char* OracleStrategyName(OracleStrategy strategy);

/// Inverse of OracleStrategyName; nullopt for unknown names.
std::optional<OracleStrategy> OracleStrategyFromName(std::string_view name);

/// The Best Match variants `strategy` runs under: for kBestMatch all six
/// unweighted ones, {counts, boolean} × {euclidean, manhattan, cosine},
/// the paper default (counts, euclidean) first; for the others only the
/// default, which they ignore.
std::vector<core::BestMatchOptions> OracleVariants(OracleStrategy strategy);

/// OracleStrategyName, plus "/<representation>/<metric>" for a Best Match
/// variant other than the paper default ("BestMatch/boolean/cosine").
std::string OracleVariantName(OracleStrategy strategy,
                              const core::BestMatchOptions& best_match = {});

/// A strategy with its Best Match variant, as named by OracleVariantName.
struct OracleVariant {
  OracleStrategy strategy;
  core::BestMatchOptions best_match;
};

/// Inverse of OracleVariantName; nullopt for unknown names.
std::optional<OracleVariant> OracleVariantFromName(std::string_view name);

struct DiffOptions {
  /// When true, runs of equal scores must match element-for-element; when
  /// false (default) tied actions may appear in any order within their run.
  bool strict_order = false;
  /// Absolute score tolerance. 0 (default) demands bitwise-equal scores,
  /// which the goal-weight-free strategies satisfy by construction.
  double score_tolerance = 0.0;
};

/// Outcome of one comparison. `detail` is a human-readable description of
/// the first divergence (empty on match).
struct DiffOutcome {
  bool match = true;
  std::string detail;
};

/// Compares an optimized list against the reference list.
DiffOutcome CompareLists(const core::RecommendationList& optimized,
                         const ReferenceList& reference,
                         const DiffOptions& options = {});

/// Runs the optimized src/core/ strategy, without goal weights. Best Match
/// runs as `best_match` says (paper default unless given); the other
/// strategies ignore it, here and below.
core::RecommendationList RunOptimized(
    const model::ImplementationLibrary& library, OracleStrategy strategy,
    const model::Activity& activity, size_t k,
    const core::BestMatchOptions& best_match = {});

/// Runs the optimized strategy through the pooled-workspace serving path
/// (RecommendPooled over a caller-owned, reused QueryWorkspace) — the
/// zero-allocation route a ServingEngine query takes. Must be bit-identical
/// to RunOptimized; tests/oracle/snapshot_test.cc holds it to that.
core::RecommendationList RunOptimizedPooled(
    const model::ImplementationLibrary& library, OracleStrategy strategy,
    const model::Activity& activity, size_t k, core::QueryWorkspace& workspace,
    const core::BestMatchOptions& best_match = {});

/// Runs the naive reference for the same configuration.
ReferenceList RunReference(const model::ImplementationLibrary& library,
                           OracleStrategy strategy,
                           const model::Activity& activity, size_t k,
                           const core::BestMatchOptions& best_match = {});

/// Optimized-vs-reference on one case; the workhorse of the oracle tests,
/// the fuzz loop and the shrinker's failure predicate.
DiffOutcome DiffStrategy(const model::ImplementationLibrary& library,
                         OracleStrategy strategy,
                         const model::Activity& activity, size_t k,
                         const DiffOptions& options = {},
                         const core::BestMatchOptions& best_match = {});

}  // namespace goalrec::testing

#endif  // GOALREC_TESTING_DIFFERENTIAL_H_
