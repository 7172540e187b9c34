#ifndef GOALREC_MODEL_LIBRARY_IO_H_
#define GOALREC_MODEL_LIBRARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/library.h"
#include "model/snapshot.h"
#include "util/retry.h"
#include "util/status.h"

// Serialisation of implementation libraries. Two on-disk formats:
//
//   * Text (one implementation per line, tab-separated):
//       # goalrec-library v1            <- required header
//       <goal name>\t<action>\t<action>...
//       #!unreferenced_action: <action>  <- declares a vocabulary action
//     Other lines starting with '#' after the header are comments. Ids are
//     assigned in file order, so a save/load round-trip preserves names and
//     structure but not numeric ids. Actions that no implementation
//     references are written as declarations after the implementation
//     lines, so activity files over the same vocabulary (a generated
//     dataset's carts) still resolve after a round-trip; goals without an
//     implementation are not written.
//   * The checksummed, crash-safe snapshot format ("*.snap",
//     model/snapshot_io.h), which keeps the full vocabularies and the exact
//     ids. Serving reload paths persist this one.
//
// LoadLibraryFile / SaveLibraryFile are the one place that picks a format
// from a path: ".snap" is a snapshot, anything else is text.
//
// Validation. Library files are untrusted input — they arrive from text
// miners, generators, other processes mid-write. Every loader validates
// record-by-record against LoadOptions: hard caps bound what a hostile
// declared count can make the parser allocate, and per-record checks catch
// malformed lines with file/line/token provenance. Two modes:
//
//   * kStrict (default): the first bad record fails the whole load with a
//     precise diagnostic ("path:line: reason near 'token'").
//   * kQuarantine: bad records are dropped, recorded in the LoadReport, and
//     the rest of the file loads. For operators who would rather serve
//     99.9% of a library than none of it.
//
// Hard caps (LoadLimits) are never quarantinable: a file claiming 2^32
// implementations is rejected outright in both modes, before any
// proportional allocation happens.

namespace goalrec::model {

/// Upper bounds a load is allowed to allocate towards. All checks happen
/// BEFORE the proportional allocation, so an adversarial header cannot OOM
/// the parser. Defaults are far above any real library but far below
/// memory-exhaustion scale.
struct LoadLimits {
  uint64_t max_file_bytes = 1ull << 32;       // 4 GiB
  uint32_t max_actions = 1u << 26;            // 67M interned action names
  uint32_t max_goals = 1u << 26;
  uint32_t max_implementations = 1u << 27;    // 134M records
  uint32_t max_actions_per_impl = 1u << 16;   // 65k actions in one activity
  uint32_t max_name_bytes = 4096;             // one interned name
};

enum class ValidationMode {
  kStrict,      // first bad record fails the load
  kQuarantine,  // bad records dropped + reported, rest loads
};

struct LoadOptions {
  ValidationMode mode = ValidationMode::kStrict;
  LoadLimits limits;
  /// Also drop records that duplicate an earlier (goal, action-set) record.
  /// Duplicates are structurally legal (two users can describe the same
  /// implementation) so they are reported but kept by default.
  bool drop_duplicates = false;
  /// Issues recorded in the report beyond this many are counted, not stored.
  size_t max_reported_issues = 64;
};

/// One bad (or suspicious) record, with enough provenance to act on: which
/// file, which line, what the offending token was and why it was rejected.
struct LoadIssue {
  std::string file;
  size_t line = 0;     // 1-based; 0 when the issue is file-level
  std::string token;   // the offending token/field, clipped for display
  std::string reason;

  /// "file:line: reason near 'token'".
  std::string ToString() const;
};

/// Outcome summary of one validated load.
struct LoadReport {
  size_t records_total = 0;        // data lines / records seen
  size_t records_loaded = 0;       // records that made it into the library
  size_t records_quarantined = 0;  // dropped (kQuarantine or duplicates)
  size_t duplicates = 0;           // duplicate (goal, action-set) records seen
  size_t issues_total = 0;         // all issues, stored or not
  std::vector<LoadIssue> issues;   // first max_reported_issues of them

  /// One-line summary for logs.
  std::string Summary() const;
};

/// Writes `library` in the text format. Overwrites `path`.
util::Status SaveLibraryText(const ImplementationLibrary& library,
                             const std::string& path);

/// Reads a text-format library with default strict validation.
util::StatusOr<ImplementationLibrary> LoadLibraryText(const std::string& path);

/// Reads a text-format library under `options`. When `report` is non-null it
/// receives per-record provenance for everything dropped or flagged; in
/// quarantine mode the returned library contains every record that passed.
util::StatusOr<ImplementationLibrary> LoadLibraryText(const std::string& path,
                                                      const LoadOptions& options,
                                                      LoadReport* report = nullptr);

/// Loads `path` in the format its name selects: the snapshot format for
/// ".snap", text otherwise. Either way the load is validated under
/// `options` and counted in goalrec_library_load_total{format=...}. When
/// `report` is non-null it receives the load's outcome; a snapshot is
/// all-or-nothing, so its report never lists quarantined records.
util::StatusOr<ImplementationLibrary> LoadLibraryFile(
    const std::string& path, const LoadOptions& options = {},
    LoadReport* report = nullptr);

/// Writes `library` to `path` in the format its name selects: an atomic
/// SaveSnapshot for ".snap", SaveLibraryText otherwise.
util::Status SaveLibraryFile(const ImplementationLibrary& library,
                             const std::string& path);

/// LoadLibraryFile with `retry` (transient kIoError/kUnavailable failures
/// are retried with jittered backoff; structural errors return at once),
/// wrapped in a versioned LibrarySnapshot whose source is `path`. This is
/// the entry point serving reload paths use (serve/snapshot_manager.h).
util::StatusOr<std::shared_ptr<const LibrarySnapshot>> LoadLibrarySnapshot(
    const std::string& path, const util::RetryOptions& retry = {},
    const LoadOptions& options = {}, LoadReport* report = nullptr);

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_LIBRARY_IO_H_
