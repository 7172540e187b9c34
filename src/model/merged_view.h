#ifndef GOALREC_MODEL_MERGED_VIEW_H_
#define GOALREC_MODEL_MERGED_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/delta.h"
#include "model/library.h"
#include "model/snapshot.h"
#include "util/status.h"

// The merged view of an immutable base library plus an applied chain of
// delta segments (model/delta.h).
//
// Logical id space. The chain addresses implementations by LOGICAL id: base
// rows keep their ids 0..N-1 and every appended record takes the next id,
// in application order, forever — tombstones never renumber the logical
// space, so a segment written yesterday still means the same rows today.
//
// The merged library. Queries cannot run over the logical space directly:
// the scoring kernels (core/) read the library's flat CSR arenas, and
// ValidateLibrary insists every index row is live. So when the merged
// library is read after one or more applied segments, the view FOLDS:
// survivors are renumbered densely in logical-id order and the CSR indexes
// rebuilt array-level — base rows copied without re-interning a single
// name, appended names interned in record order. Folding on read means a
// writer that never reads library() never folds (only Compact does), and a
// reader that catches up several segments in one poll folds once. The
// result is bit-identical to rebuilding from scratch with LibraryBuilder
// (intern the base vocabularies in id order, intern every appended record's
// names in order, add the surviving implementations in logical order) —
// the delta oracle suite (tests/oracle/delta_oracle_test.cc) proves this at
// both the snapshot-byte and the query-result level. Renumbering is
// invisible to rankings because every strategy tie-breaks on score then id,
// and the renumbering is monotone.
//
// Vocabularies are append-only: tombstones remove implementations, never
// names, so action/goal ids are stable across the whole chain and a
// tombstoned goal's name stays resolvable (its implementation list just
// goes empty).
//
// ApplySegment is transactional: chain position and semantics are fully
// validated before the first mutation, so a rejected segment leaves the
// view untouched — the "keep serving the last good view" invariant the
// serving layer builds on. Chain position, liveness and the goal vocabulary
// update eagerly; only the CSR rebuild waits for the read.
//
// The fold lands straight in a shared LibrarySnapshot (model/snapshot.h):
// snapshot() hands that object to the serving layer, which publishes it
// without a copy, and library() reads the same object. Before the first
// segment the base itself is the snapshot.
//
// Not thread-safe, including library(): a read may run the pending fold.
// The snapshots it hands out are immutable and may be read from any thread.

namespace goalrec::model {

class MergedLibraryView {
 public:
  /// Anchors a view at `base`. `base_crc32c` is the CRC32C of the base
  /// snapshot's encoded bytes — the chain identity every applied segment
  /// must carry. `source` tags every snapshot the view hands out.
  MergedLibraryView(ImplementationLibrary base, uint32_t base_crc32c,
                    std::string source = "delta");

  /// Chain position the next segment must occupy.
  uint32_t base_crc32c() const { return base_crc32c_; }
  uint64_t next_chain_seq() const { return segments_applied_ + 1; }
  /// CRC32C of the last applied segment's encoded bytes (0 before any).
  uint32_t prev_segment_crc32c() const { return prev_segment_crc32c_; }
  /// The header a segment carrying the next mutation batch must use.
  DeltaHeader NextHeader() const {
    return DeltaHeader{base_crc32c_, next_chain_seq(), prev_segment_crc32c_};
  }

  /// Checks `segment` against the chain position (stale base, out-of-order
  /// or respliced sequence) and semantics (tombstoned implementation ids in
  /// range, tombstoned goal names known) without mutating the view.
  /// kFailedPrecondition for chain violations, kInvalidArgument for
  /// semantic ones. `name` is used in diagnostics only.
  util::Status ValidateSegment(const DeltaSegment& segment,
                               const std::string& name) const;

  /// Validates and applies; the fold waits for the next library() call.
  /// `segment_crc32c` is the CRC32C of the segment's encoded bytes (the
  /// linkage the NEXT segment must carry as prev_crc32c). On error the view
  /// is untouched.
  util::Status ApplySegment(const DeltaSegment& segment,
                            uint32_t segment_crc32c, const std::string& name);

  /// The merged library: base plus applied segments, tombstones masked,
  /// survivors densely renumbered. Folds first when segments were applied
  /// since the last fold. Valid until the next fold; snapshot() keeps it
  /// alive longer.
  const ImplementationLibrary& library() const { return snapshot()->library; }

  /// The snapshot library() reads, folding first when a fold is pending.
  /// One snapshot per fold: reads between two folds return the same object.
  std::shared_ptr<const LibrarySnapshot> snapshot() const;

  /// Moves the merged library out, folding first when a fold is pending;
  /// copies it instead while a snapshot() of it is still held elsewhere.
  /// The view is left unusable; Compact re-anchors a new view on the result.
  ImplementationLibrary TakeLibrary() &&;

  /// The base library the chain is anchored at.
  const ImplementationLibrary& base() const { return base_->library; }

  struct Stats {
    uint64_t segments_applied = 0;
    /// Cumulative appended records (live or since tombstoned).
    uint64_t appended_implementations = 0;
    /// Logical rows currently dead.
    uint64_t tombstoned_implementations = 0;
    /// Cumulative goal tombstone operations applied.
    uint64_t tombstoned_goals = 0;
    uint32_t live_implementations = 0;
    /// Folds performed so far (one per library() read that found segments
    /// applied since the previous fold).
    uint64_t folds = 0;
    /// Wall time of the last fold performed (0 before the first).
    int64_t last_fold_micros = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void Fold() const;

  std::shared_ptr<const LibrarySnapshot> base_;
  // The last fold. Before the first segment the merged library IS base_, so
  // snapshot() returns base_ and no copy is held.
  mutable std::shared_ptr<const LibrarySnapshot> merged_;
  std::string source_;
  mutable bool fold_pending_ = false;
  uint32_t base_crc32c_ = 0;
  uint32_t prev_segment_crc32c_ = 0;
  uint64_t segments_applied_ = 0;
  /// Every appended record, in logical order (dead ones included: their
  /// names stay interned and their logical ids stay allocated).
  std::vector<DeltaImplementation> appended_;
  /// Liveness per logical id: base rows 0..N-1, then appended records.
  std::vector<uint8_t> alive_;
  /// Goal id (in the merged, append-only goal vocabulary) per logical id —
  /// what goal tombstones match against without string comparisons.
  std::vector<GoalId> goal_of_;
  /// Append-only goal vocabulary maintained incrementally (base ids
  /// preserved, appended goals interned in record order) so tombstones and
  /// validation resolve names without waiting for the fold.
  Vocabulary goals_vocab_;
  // Mutable for the fold counters library() updates.
  mutable Stats stats_;
};

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_MERGED_VIEW_H_
