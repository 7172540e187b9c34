#include "model/delta_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/snapshot_io.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace goalrec::model {
namespace {

constexpr char kBaseFileName[] = "base.snap";
constexpr char kSegmentSuffix[] = ".sdelta";

std::string SegmentFileName(uint32_t base_crc, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%08x-%06llu%s", base_crc,
                static_cast<unsigned long long>(seq), kSegmentSuffix);
  return buf;
}

/// Parses "seg-<8 hex>-<digits>.sdelta"; false for anything else.
bool ParseSegmentFileName(std::string_view name, uint32_t* base_crc,
                          uint64_t* seq) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = kSegmentSuffix;
  if (name.size() < kPrefix.size() + 8 + 1 + 1 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  std::string_view body =
      name.substr(kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  if (body.size() < 8 + 2 || body[8] != '-') return false;
  uint32_t crc = 0;
  for (int i = 0; i < 8; ++i) {
    char c = body[i];
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    crc = (crc << 4) | digit;
  }
  uint64_t s = 0;
  std::string_view digits = body.substr(9);
  if (digits.empty() || digits.size() > 19) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    s = s * 10 + static_cast<uint64_t>(c - '0');
  }
  *base_crc = crc;
  *seq = s;
  return true;
}

util::Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return util::IoError("open directory " + dir + ": " +
                         std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    util::Status status =
        util::IoError("fsync directory " + dir + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return util::Status::Ok();
}

struct DirScan {
  /// Current-chain segment files by sequence number.
  std::map<uint64_t, std::string> chain;  // seq -> filename
  /// Parseable segment files of another chain (stale after compaction).
  std::vector<std::string> stale;
  /// Files ending in .sdelta whose name does not parse.
  std::vector<std::string> foreign;
};

DirScan ScanSegments(const std::string& dir, uint32_t base_crc) {
  DirScan scan;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < sizeof(kSegmentSuffix) ||
        name.substr(name.size() - (sizeof(kSegmentSuffix) - 1)) !=
            kSegmentSuffix) {
      continue;
    }
    uint32_t crc = 0;
    uint64_t seq = 0;
    if (!ParseSegmentFileName(name, &crc, &seq)) {
      scan.foreign.push_back(name);
      continue;
    }
    if (crc != base_crc) {
      scan.stale.push_back(name);
      continue;
    }
    scan.chain[seq] = name;
  }
  return scan;
}

}  // namespace

DeltaLog::DeltaLog(std::string dir, DeltaLogOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

std::string DeltaLog::base_path() const { return dir_ + "/" + kBaseFileName; }

std::string DeltaLog::SegmentPath(uint64_t seq) const {
  return dir_ + "/" + SegmentFileName(view_->base_crc32c(), seq);
}

util::StatusOr<DeltaLog> DeltaLog::Open(std::string dir,
                                        DeltaLogOptions options) {
  DeltaLog log(std::move(dir), std::move(options));
  if (util::Status s = log.Reopen(); !s.ok()) return s;
  return log;
}

util::StatusOr<DeltaLog> DeltaLog::Create(std::string dir,
                                          const ImplementationLibrary& library,
                                          DeltaLogOptions options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::IoError("create directory " + dir + ": " + ec.message());
  }
  util::Status saved = SaveSnapshot(library, dir + "/" + kBaseFileName);
  if (!saved.ok()) return saved;
  return Open(std::move(dir), std::move(options));
}

util::Status DeltaLog::Reopen() {
  const std::string base = base_path();
  util::StatusOr<std::string> bytes =
      ReadFileToString(base, options_.load.limits.max_file_bytes);
  if (!bytes.ok()) return bytes.status();
  util::StatusOr<ImplementationLibrary> library =
      DecodeSnapshot(bytes.value(), base, options_.load);
  if (!library.ok()) return library.status();
  view_.emplace(std::move(library).value(), util::Crc32c(bytes.value()),
                dir_);
  quarantined_.clear();
  CatchUpChain();
  return util::Status::Ok();
}

uint64_t DeltaLog::CatchUpChain() {
  DirScan scan = ScanSegments(dir_, view_->base_crc32c());
  quarantined_.clear();
  for (const std::string& name : scan.foreign) {
    quarantined_[name] = "unrecognised segment filename";
  }
  for (const std::string& name : scan.stale) {
    if (options_.remove_stale_segments) {
      if (::unlink((dir_ + "/" + name).c_str()) == 0) {
        ++stale_segments_removed_;
      }
    } else {
      quarantined_[name] = "stale chain (awaiting compaction cleanup)";
    }
  }
  if (options_.remove_stale_segments && !scan.stale.empty()) {
    // Persist the cleanup; best effort — a crash simply re-runs it.
    FsyncDir(dir_);
  }

  uint64_t applied = 0;
  uint64_t seq = view_->next_chain_seq();
  std::string broken_reason;
  for (;; ++seq) {
    auto it = scan.chain.find(seq);
    if (it == scan.chain.end()) break;
    const std::string path = dir_ + "/" + it->second;
    util::StatusOr<std::string> bytes =
        ReadFileToString(path, options_.load.limits.max_file_bytes);
    if (!bytes.ok()) {
      broken_reason = bytes.status().ToString();
      quarantined_[it->second] = broken_reason;
      break;
    }
    // Header first (36 bytes): a stale or out-of-order segment is rejected
    // here, before any frame is parsed.
    util::StatusOr<DeltaHeader> header = ReadDeltaHeader(bytes.value(), path);
    util::Status status = header.ok() ? util::Status::Ok() : header.status();
    if (status.ok()) {
      DeltaHeader want = view_->NextHeader();
      if (header.value().base_crc32c != want.base_crc32c ||
          header.value().chain_seq != want.chain_seq ||
          header.value().prev_crc32c != want.prev_crc32c) {
        status = util::FailedPreconditionError(
            path + ": segment header does not chain to the current view");
      }
    }
    if (status.ok()) {
      util::StatusOr<DeltaSegment> segment =
          DecodeDeltaSegment(bytes.value(), path, options_.load);
      status = segment.ok()
                   ? view_->ApplySegment(segment.value(),
                                         util::Crc32c(bytes.value()), path)
                   : segment.status();
    }
    if (!status.ok()) {
      broken_reason = status.ToString();
      quarantined_[it->second] = broken_reason;
      break;
    }
    ++applied;
  }

  // Everything past the break is unreachable: either the chain has a gap at
  // `seq` or the segment there was rejected. The files stay on disk — a
  // restarted writer rewrites the bad sequence number atomically.
  for (const auto& [s, name] : scan.chain) {
    if (s <= seq) continue;
    quarantined_[name] =
        broken_reason.empty()
            ? "unreachable: chain has no segment at seq " + std::to_string(seq)
            : "unreachable: chain broken at seq " + std::to_string(seq);
  }
  return applied;
}

util::Status DeltaLog::Append(const DeltaOps& ops) {
  DeltaHeader header = view_->NextHeader();
  DeltaSegment segment{header, ops};
  const std::string path = SegmentPath(header.chain_seq);
  if (util::Status s = view_->ValidateSegment(segment, path); !s.ok()) {
    return s;
  }
  std::string bytes = EncodeDeltaSegment(header, ops);
  if (util::Status s = AtomicWriteFile(bytes, path); !s.ok()) return s;
  if (util::Status s =
          view_->ApplySegment(segment, util::Crc32c(bytes), path);
      !s.ok()) {
    return util::InternalError(
        path + ": segment validated but failed to apply: " + s.ToString());
  }
  return util::Status::Ok();
}

util::Status DeltaLog::Compact() {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t consumed = view_->stats().segments_applied;
  const uint32_t old_crc = view_->base_crc32c();

  std::string bytes = EncodeSnapshot(view_->library());
  const uint32_t new_crc = util::Crc32c(bytes);
  if (util::Status s = AtomicWriteFile(bytes, base_path()); !s.ok()) return s;

  // The consumed segments are folded into the published base; remove them.
  // A crash before (or during) these unlinks leaves files whose embedded
  // CRC no longer matches the base — recognisably stale, cleaned on the
  // next Open/CatchUpChain.
  for (uint64_t seq = 1; seq <= consumed; ++seq) {
    ::unlink((dir_ + "/" + SegmentFileName(old_crc, seq)).c_str());
  }
  if (util::Status s = FsyncDir(dir_); !s.ok()) return s;

  // Re-anchor the chain at the new base. The merged library IS the new base
  // (same bytes just published), so no re-decode is needed; it moves unless
  // a reader of this log still holds its snapshot.
  ImplementationLibrary merged = std::move(*view_).TakeLibrary();
  view_.emplace(std::move(merged), new_crc, dir_);
  quarantined_.clear();
  CatchUpChain();  // cleans any remaining stale files; no chain yet

  ++compactions_;
  last_compaction_micros_ =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return util::Status::Ok();
}

util::StatusOr<DeltaLog::PollResult> DeltaLog::Poll() {
  PollResult result;
  util::StatusOr<std::string> bytes =
      ReadFileToString(base_path(), options_.load.limits.max_file_bytes);
  if (!bytes.ok()) return bytes.status();
  const uint32_t crc = util::Crc32c(bytes.value());
  if (crc != view_->base_crc32c()) {
    // The writer re-anchored (compaction). Decode the new base before
    // touching the view: a torn non-atomic publish keeps the old view
    // serving and surfaces the error to the caller.
    util::StatusOr<ImplementationLibrary> library =
        DecodeSnapshot(bytes.value(), base_path(), options_.load);
    if (!library.ok()) return library.status();
    view_.emplace(std::move(library).value(), crc, dir_);
    quarantined_.clear();
    result.reopened_base = true;
  }
  result.segments_applied = CatchUpChain();
  return result;
}

DeltaLogStats DeltaLog::stats() const {
  DeltaLogStats stats;
  stats.view = view_->stats();
  stats.segments_active = stats.view.segments_applied;
  stats.quarantined_segments = quarantined_.size();
  stats.stale_segments_removed = stale_segments_removed_;
  stats.compactions = compactions_;
  stats.last_compaction_micros = last_compaction_micros_;
  return stats;
}

std::vector<QuarantinedSegment> DeltaLog::quarantined() const {
  std::vector<QuarantinedSegment> out;
  out.reserve(quarantined_.size());
  for (const auto& [file, reason] : quarantined_) {
    out.push_back(QuarantinedSegment{file, reason});
  }
  return out;
}

}  // namespace goalrec::model
