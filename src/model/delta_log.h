#ifndef GOALREC_MODEL_DELTA_LOG_H_
#define GOALREC_MODEL_DELTA_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/delta.h"
#include "model/library.h"
#include "model/library_io.h"
#include "model/merged_view.h"
#include "model/snapshot.h"
#include "util/status.h"

// On-disk manager for a delta-snapshot directory:
//
//   <dir>/base.snap                       immutable base (GRSNAP1)
//   <dir>/seg-<basecrc8hex>-<seq>.sdelta  delta chain (GRSDLT1), seq >= 1
//
// Segment filenames embed the base CRC, so after a compaction re-anchors
// the chain the leftovers of the old chain are recognisably stale from the
// name alone — a crash between publishing the new base and unlinking the
// consumed segments recovers by deleting them on the next Open.
//
// Single-writer discipline: exactly one process appends and compacts; any
// number of readers Poll. Every publish (segment or re-anchored base) is a
// POSIX-atomic rename, so readers only ever observe complete files — a
// non-atomic or hostile writer is caught by the CRC envelope instead.
//
// Recovery invariant (docs/data_plane.md): Open applies the longest valid
// prefix of the chain. The first segment that is missing, torn, corrupt,
// stale or out of order quarantines itself AND everything after it (in
// memory — the files are left in place, because a restarted writer rewrites
// the bad sequence number atomically), and the view reopens at the last
// durable prefix. Crash at any byte of any publish therefore loses at most
// the unpublished suffix, never the ability to serve.

namespace goalrec::model {

struct DeltaLogOptions {
  LoadOptions load;
  /// Delete stale-chain segments (crash-mid-compaction leftovers) when they
  /// are found on Open or after a Compact.
  bool remove_stale_segments = true;
};

/// One segment file rejected during recovery or polling, with the reason.
struct QuarantinedSegment {
  std::string file;
  std::string reason;
};

struct DeltaLogStats {
  /// Segments applied on the current chain — the pending-compaction backlog.
  uint64_t segments_active = 0;
  /// Segment files currently present but rejected (torn/corrupt/stale tail).
  uint64_t quarantined_segments = 0;
  /// Stale-chain segment files removed (compaction crash cleanup).
  uint64_t stale_segments_removed = 0;
  uint64_t compactions = 0;
  /// Wall time of the most recent Compact (fold + publish + cleanup).
  int64_t last_compaction_micros = 0;
  /// Merged-view counters (appends, tombstones, live rows, fold time).
  MergedLibraryView::Stats view;
};

class DeltaLog {
 public:
  /// Opens an existing delta directory: loads base.snap, applies the longest
  /// valid chain prefix, quarantines the rest.
  static util::StatusOr<DeltaLog> Open(std::string dir,
                                       DeltaLogOptions options = {});

  /// Creates <dir>/base.snap from `library` (atomically; an existing base
  /// is replaced) and opens the directory.
  static util::StatusOr<DeltaLog> Create(std::string dir,
                                         const ImplementationLibrary& library,
                                         DeltaLogOptions options = {});

  DeltaLog(DeltaLog&&) = default;
  DeltaLog& operator=(DeltaLog&&) = default;

  /// Writer path: validates `ops` against the current view, persists them as
  /// the next segment in the chain (atomic rename), then applies them. On
  /// error nothing is applied; a failed write leaves no visible file.
  util::Status Append(const DeltaOps& ops);

  /// Folds base + applied segments into a fresh base, publishes it
  /// atomically, unlinks the consumed segment files, and re-anchors the
  /// chain at the new base (seq restarts at 1). A crash anywhere leaves a
  /// directory Open recovers: either the old base + old chain, or the new
  /// base with the old chain's files recognisably stale.
  util::Status Compact();

  struct PollResult {
    uint64_t segments_applied = 0;
    bool reopened_base = false;
  };
  /// Reader path: picks up whatever the single writer published since the
  /// last call — newly appended segments applied in order, or a re-anchored
  /// base (detected by CRC change), which reopens the whole directory. A
  /// torn or corrupt published file quarantines the tail and keeps the
  /// current view serving; the error is returned so callers can log it.
  util::StatusOr<PollResult> Poll();

  /// The merged library at the current chain position: the library of
  /// snapshot(), folded at most once per chain position.
  const ImplementationLibrary& library() const { return view_->library(); }
  /// The merged library as a shared snapshot, tagged with dir(). The
  /// serving layer publishes this object itself; it is a new snapshot only
  /// after a poll or append moved the chain.
  std::shared_ptr<const LibrarySnapshot> snapshot() const {
    return view_->snapshot();
  }
  const MergedLibraryView& view() const { return *view_; }

  const std::string& dir() const { return dir_; }
  std::string base_path() const;
  /// Path of segment `seq` on the current chain.
  std::string SegmentPath(uint64_t seq) const;

  DeltaLogStats stats() const;
  std::vector<QuarantinedSegment> quarantined() const;

 private:
  DeltaLog(std::string dir, DeltaLogOptions options);

  /// Loads base.snap and replays the chain from disk, replacing the view.
  util::Status Reopen();
  /// Applies chain segments beyond the view's current position; quarantines
  /// the tail on the first bad one. Returns segments applied.
  uint64_t CatchUpChain();

  std::string dir_;
  DeltaLogOptions options_;
  std::optional<MergedLibraryView> view_;
  /// Currently rejected segment files, by filename. Re-examined on every
  /// poll: a restarted writer may atomically replace a bad sequence number
  /// with a good segment.
  std::map<std::string, std::string> quarantined_;
  uint64_t stale_segments_removed_ = 0;
  uint64_t compactions_ = 0;
  int64_t last_compaction_micros_ = 0;
};

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_DELTA_LOG_H_
