#ifndef GOALREC_TESTING_SHRINK_H_
#define GOALREC_TESTING_SHRINK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "testing/generator.h"
#include "util/status.h"

// Greedy test-case shrinking for the differential fuzz driver. Given a
// failing OracleCase and a predicate that re-checks the failure, the
// shrinker repeatedly tries structure-removing edits — drop all
// implementations of a goal, drop a single implementation, drop an action
// from the activity H — keeping every edit that preserves the failure, until
// a fixpoint. The result is the small repro a human debugs, serialised as a
// loadable library file plus the command line that replays it.
//
// Vocabularies are preserved across shrink edits (candidate libraries are
// rebuilt with the full original action/goal vocabulary), so action and goal
// ids — and therefore the predicate's meaning — are stable throughout the
// shrink. Serialisation then compacts ids order-preservingly; a monotone
// relabel keeps every tie-break and score identical, so a written repro
// replays the same divergence.

namespace goalrec::testing {

/// Returns true while the case still exhibits the failure being minimised.
/// Must be deterministic.
using FailurePredicate = std::function<bool(const OracleCase&)>;

/// Bookkeeping of one shrink run, for logs and tests.
struct ShrinkStats {
  size_t predicate_calls = 0;
  size_t passes = 0;  // full fixpoint iterations
  uint32_t impls_before = 0;
  uint32_t impls_after = 0;
  size_t activity_before = 0;
  size_t activity_after = 0;
};

/// Greedily minimises `failing` (which must satisfy `still_fails`) and
/// returns the smallest case found. The returned case satisfies
/// `still_fails`.
OracleCase ShrinkFailure(const OracleCase& failing,
                         const FailurePredicate& still_fails,
                         ShrinkStats* stats = nullptr);

// --- repro files ------------------------------------------------------------
//
// A repro is a single self-contained text file, forward-compatible with the
// library text format (model/library_io.h): the implementation lines ARE the
// text format, and the fuzz metadata rides in `#!key: value` comment lines
// that LoadLibraryText ignores. Example:
//
//   # goalrec-library v1
//   #!strategy: Breadth
//   #!entry_point: RecommendPooled
//   #!k: 5
//   #!seed: 1234
//   #!actions: act2,act7,act9
//   #!goals: goal1,goal3
//   #!activity: act2,act9
//   goal1\tact2\tact7
//   goal3\tact7\tact9
//
// The #!actions/#!goals directives pin the interning order (ascending
// original id), so a reload assigns ids order-isomorphic to the shrunk case.

/// The parsed content of a repro file.
struct ReproCase {
  OracleCase oracle_case;
  /// OracleVariantName of the diverging strategy; empty = check all.
  std::string strategy;
  /// The optimized call that diverged (DiffOutcome::entry_point, e.g.
  /// "RecommendPooled(null)"); empty when unknown. A replay diffs every
  /// entry point either way.
  std::string entry_point;
  /// Seed of the generated case the shrink started from (0 if unknown).
  uint64_t seed = 0;
};

/// Writes `c` as a repro file at `path`. Only actions/goals referenced by a
/// kept implementation or the activity are serialised. `entry_point`, when
/// not empty, names the optimized call that diverged.
util::Status WriteRepro(const OracleCase& c, const std::string& strategy_name,
                        uint64_t seed, const std::string& path,
                        const std::string& entry_point = "");

/// Parses a repro file written by WriteRepro.
util::StatusOr<ReproCase> LoadRepro(const std::string& path);

/// One-line human description of a loaded repro — leads with the strategy
/// that diverged ("all strategies" when the repro does not pin one) and the
/// entry point when the repro names one, then the case dimensions and seed.
/// The fuzz driver's replay header prints this, so the strategy under
/// suspicion is visible before any shrinking or re-checking output.
std::string DescribeRepro(const ReproCase& repro);

/// The command line that replays `path` through the fuzz driver.
std::string ReproCommandLine(const std::string& path);

}  // namespace goalrec::testing

#endif  // GOALREC_TESTING_SHRINK_H_
