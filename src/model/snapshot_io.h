#ifndef GOALREC_MODEL_SNAPSHOT_IO_H_
#define GOALREC_MODEL_SNAPSHOT_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "model/library.h"
#include "model/library_io.h"
#include "util/status.h"

// Crash-consistent snapshot persistence for implementation libraries.
//
// This is the format serving reload paths persist and poll ("*.snap").
// Unlike the text and binary formats (model/library_io.h), it is designed
// for the failure modes of a file being replaced under a live reader:
// truncated writes, torn renames, bit rot. Layout (all integers
// little-endian):
//
//   header   "GRSNAP1\n"  u32 format_version  u32 flags
//   frames   repeated { u32 tag  u64 payload_len  payload
//                       u32 masked_crc32c(tag | payload_len | payload) }
//              tag 1: action vocabulary (u32 count, length-prefixed names)
//              tag 2: goal vocabulary   (same encoding)
//              tag 3: implementations   (u32 count, then per record
//                                        u32 goal, u32 len, len action ids)
//   footer   u64 frames_len  u32 masked_crc32c(all frame bytes)  "GRSNEND\n"
//
// The loader verifies the footer (end magic + whole-body CRC) BEFORE
// parsing any frame, so a torn or truncated write is rejected
// deterministically — there is no prefix of a valid snapshot that is itself
// a valid snapshot. Per-frame CRCs then localise corruption for
// diagnostics. CRCs are masked (LevelDB-style) so a snapshot embedded in a
// CRC-ed transport does not degenerate.
//
// SaveSnapshot is atomic on POSIX: the bytes go to a temp file in the same
// directory, are fsync()ed, renamed over `path`, and the parent directory
// is fsync()ed. A crash at any byte leaves either the old file or the new
// one, never a hybrid. Readers polling `path` therefore see only complete
// snapshots (or, with a non-atomic writer, a file the CRC rejects).
//
// Unlike text round-trips, snapshots preserve vocabularies and numeric ids
// exactly: LoadSnapshotFile(SaveSnapshot(L)) is bit-identical to L.

namespace goalrec::model {

/// Current (and only) snapshot format version.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Serialises `library` into the snapshot wire format (header + frames +
/// footer), returning the bytes. Exposed for tests and for writers that
/// want to corrupt/stage bytes themselves (the chaos harness).
std::string EncodeSnapshot(const ImplementationLibrary& library);

/// Parses snapshot bytes produced by EncodeSnapshot. Verifies the footer
/// CRC before any parsing and every frame CRC during it; allocation is
/// bounded by `options.limits`. `name` is used in diagnostics only.
util::StatusOr<ImplementationLibrary> DecodeSnapshot(
    std::string_view bytes, const std::string& name,
    const LoadOptions& options = {});

/// Writes `library` to `path` crash-consistently: temp file + fsync +
/// rename + parent-directory fsync. On failure the previous `path` content
/// (if any) is untouched.
util::Status SaveSnapshot(const ImplementationLibrary& library,
                          const std::string& path);

/// Loads a snapshot written by SaveSnapshot. Either returns the complete
/// library or fails cleanly (kInvalidArgument for corrupt/torn bytes,
/// kIoError for filesystem trouble) — never a partial library.
util::StatusOr<ImplementationLibrary> LoadSnapshotFile(
    const std::string& path, const LoadOptions& options = {});

/// Writes `bytes` to `path` crash-consistently: same-directory temp file +
/// fsync + rename + parent-directory fsync. A crash at any byte leaves
/// either the old `path` content or the new one, never a hybrid. Shared by
/// SaveSnapshot and the delta-segment writer (model/delta.h).
util::Status AtomicWriteFile(std::string_view bytes, const std::string& path);

/// Largest single read() ReadFileToString issues.
inline constexpr size_t kReadFileChunkBytes = size_t{1} << 20;

/// Reads the whole file into a string with bulk read() calls, rejecting
/// files over `max_bytes` (kResourceExhausted) before the proportional
/// allocation, and again if more bytes arrive than the cap allows.
/// kIoError for filesystem trouble.
util::StatusOr<std::string> ReadFileToString(const std::string& path,
                                             uint64_t max_bytes);

}  // namespace goalrec::model

#endif  // GOALREC_MODEL_SNAPSHOT_IO_H_
