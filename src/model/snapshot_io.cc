#include "model/snapshot_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>

#include "model/wire_format.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace goalrec::model {
namespace {

using wire::AppendFrame;
using wire::AppendU32;
using wire::AppendU64;
using wire::Cursor;
using wire::ReadU32At;
using wire::ReadU64At;

constexpr char kHeaderMagic[8] = {'G', 'R', 'S', 'N', 'A', 'P', '1', '\n'};
constexpr char kFooterMagic[8] = {'G', 'R', 'S', 'N', 'E', 'N', 'D', '\n'};
constexpr size_t kHeaderSize = sizeof(kHeaderMagic) + 2 * sizeof(uint32_t);
constexpr size_t kFooterSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(kFooterMagic);

constexpr uint32_t kTagActions = 1;
constexpr uint32_t kTagGoals = 2;
constexpr uint32_t kTagImpls = 3;

std::string EncodeVocabulary(const Vocabulary& vocab) {
  std::string payload;
  AppendU32(&payload, vocab.size());
  for (uint32_t id = 0; id < vocab.size(); ++id) {
    const std::string& name = vocab.Name(id);
    AppendU32(&payload, static_cast<uint32_t>(name.size()));
    payload.append(name);
  }
  return payload;
}

}  // namespace

std::string EncodeSnapshot(const ImplementationLibrary& library) {
  std::string out;
  out.append(kHeaderMagic, sizeof(kHeaderMagic));
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, 0);  // flags

  const size_t frames_start = out.size();
  AppendFrame(&out, kTagActions, EncodeVocabulary(library.actions()));
  AppendFrame(&out, kTagGoals, EncodeVocabulary(library.goals()));
  std::string impls;
  AppendU32(&impls, library.num_implementations());
  for (ImplId p = 0; p < library.num_implementations(); ++p) {
    ImplementationView impl = library.implementation(p);
    AppendU32(&impls, impl.goal);
    AppendU32(&impls, static_cast<uint32_t>(impl.actions.size()));
    for (ActionId a : impl.actions) AppendU32(&impls, a);
  }
  AppendFrame(&out, kTagImpls, impls);

  const uint64_t frames_len = out.size() - frames_start;
  uint32_t body_crc = util::Crc32c(
      std::string_view(out.data() + frames_start, frames_len));
  AppendU64(&out, frames_len);
  AppendU32(&out, util::MaskCrc32c(body_crc));
  out.append(kFooterMagic, sizeof(kFooterMagic));
  return out;
}

util::StatusOr<ImplementationLibrary> DecodeSnapshot(
    std::string_view bytes, const std::string& name,
    const LoadOptions& options) {
  const LoadLimits& limits = options.limits;
  if (bytes.size() < kHeaderSize + kFooterSize) {
    return util::InvalidArgumentError(
        name + ": " + std::to_string(bytes.size()) +
        " bytes is too short for a snapshot (truncated write?)");
  }
  if (std::memcmp(bytes.data(), kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    return util::InvalidArgumentError(name + ": bad snapshot header magic");
  }
  uint32_t version = ReadU32At(bytes, sizeof(kHeaderMagic));
  if (version != kSnapshotFormatVersion) {
    return util::InvalidArgumentError(
        name + ": unsupported snapshot format version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  // Version 1 defines no flags; the header is outside the body CRC, so a
  // strict zero check is what makes bit rot in this field detectable.
  uint32_t flags = ReadU32At(bytes, sizeof(kHeaderMagic) + sizeof(uint32_t));
  if (flags != 0) {
    return util::InvalidArgumentError(
        name + ": unknown snapshot header flags 0x" + [flags] {
          char buf[9];
          std::snprintf(buf, sizeof(buf), "%08x", flags);
          return std::string(buf);
        }());
  }

  // Footer first: end magic then whole-body CRC. Anything torn or truncated
  // dies here, before any frame is trusted.
  const size_t footer_at = bytes.size() - kFooterSize;
  if (std::memcmp(bytes.data() + footer_at + sizeof(uint64_t) +
                      sizeof(uint32_t),
                  kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return util::InvalidArgumentError(
        name + ": missing snapshot end magic (truncated or torn write)");
  }
  uint64_t frames_len = ReadU64At(bytes, footer_at);
  uint32_t want_crc =
      util::UnmaskCrc32c(ReadU32At(bytes, footer_at + sizeof(uint64_t)));
  if (frames_len != footer_at - kHeaderSize) {
    return util::InvalidArgumentError(
        name + ": footer declares " + std::to_string(frames_len) +
        " frame bytes but the file holds " +
        std::to_string(footer_at - kHeaderSize));
  }
  std::string_view frames = bytes.substr(kHeaderSize, frames_len);
  if (util::Crc32c(frames) != want_crc) {
    return util::InvalidArgumentError(
        name + ": snapshot body CRC mismatch (corrupt or torn write)");
  }

  // Body verified; walk the frames, checking each frame CRC to localise any
  // corruption the (already-passed) body CRC would have caught anyway.
  std::string_view actions_payload, goals_payload, impls_payload;
  util::Status walked = wire::WalkFrames(
      frames, kHeaderSize, name,
      [&](uint32_t tag, std::string_view payload,
          size_t offset) -> util::Status {
        switch (tag) {
          case kTagActions:
            actions_payload = payload;
            break;
          case kTagGoals:
            goals_payload = payload;
            break;
          case kTagImpls:
            impls_payload = payload;
            break;
          default:
            // Unknown tags are an error in version 1: there is nothing
            // forward-compatible to skip yet, and silently ignoring frames
            // hides splices.
            return util::InvalidArgumentError(
                name + ": unknown frame tag " + std::to_string(tag) +
                " at offset " + std::to_string(offset));
        }
        return util::Status::Ok();
      });
  if (!walked.ok()) return walked;
  if (actions_payload.data() == nullptr || goals_payload.data() == nullptr ||
      impls_payload.data() == nullptr) {
    return util::InvalidArgumentError(
        name + ": snapshot is missing a required frame");
  }

  LibraryBuilder builder;
  auto decode_vocab = [&](std::string_view payload, const char* what,
                          uint32_t max_entries,
                          auto intern) -> util::StatusOr<uint32_t> {
    Cursor cur(payload, name);
    uint32_t count = 0;
    if (util::Status s = cur.ReadU32(&count, what); !s.ok()) return s;
    if (count > max_entries || count > payload.size() / 4) {
      return util::ResourceExhaustedError(
          name + ": declared " + std::string(what) + " count " +
          std::to_string(count) + " exceeds the load cap or the frame size");
    }
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t len = 0;
      if (util::Status s = cur.ReadU32(&len, what); !s.ok()) return s;
      if (len > limits.max_name_bytes) {
        return util::ResourceExhaustedError(
            name + ": " + std::string(what) + " " + std::to_string(i) +
            " declares " + std::to_string(len) + " name bytes, over the cap");
      }
      std::string_view nm;
      if (util::Status s = cur.ReadBytes(&nm, len, what); !s.ok()) return s;
      uint32_t id = intern(nm);
      if (id != i) {
        return util::InvalidArgumentError(
            name + ": duplicate " + std::string(what) + " name at index " +
            std::to_string(i));
      }
    }
    if (cur.remaining() != 0) {
      return util::InvalidArgumentError(name + ": trailing bytes in " +
                                        std::string(what) + " frame");
    }
    return count;
  };

  util::StatusOr<uint32_t> num_actions = decode_vocab(
      actions_payload, "action", limits.max_actions,
      [&](std::string_view nm) { return builder.InternAction(nm); });
  if (!num_actions.ok()) return num_actions.status();
  util::StatusOr<uint32_t> num_goals = decode_vocab(
      goals_payload, "goal", limits.max_goals,
      [&](std::string_view nm) { return builder.InternGoal(nm); });
  if (!num_goals.ok()) return num_goals.status();

  Cursor cur(impls_payload, name);
  uint32_t num_impls = 0;
  if (util::Status s = cur.ReadU32(&num_impls, "impl count"); !s.ok()) {
    return s;
  }
  if (num_impls > limits.max_implementations ||
      num_impls > impls_payload.size() / 8) {
    return util::ResourceExhaustedError(
        name + ": declared implementation count " + std::to_string(num_impls) +
        " exceeds the load cap or the frame size");
  }
  for (uint32_t i = 0; i < num_impls; ++i) {
    uint32_t goal = 0, len = 0;
    if (util::Status s = cur.ReadU32(&goal, "implementation"); !s.ok()) {
      return s;
    }
    if (util::Status s = cur.ReadU32(&len, "implementation"); !s.ok()) {
      return s;
    }
    if (goal >= num_goals.value()) {
      return util::InvalidArgumentError(
          name + ": implementation " + std::to_string(i) + " has goal id " +
          std::to_string(goal) + " out of range [0, " +
          std::to_string(num_goals.value()) + ")");
    }
    if (len > limits.max_actions_per_impl ||
        len > cur.remaining() / 4) {
      return util::ResourceExhaustedError(
          name + ": implementation " + std::to_string(i) + " declares " +
          std::to_string(len) + " actions, over the cap or the frame size");
    }
    IdSet actions(len);
    for (uint32_t j = 0; j < len; ++j) {
      if (util::Status s = cur.ReadU32(&actions[j], "action list");
          !s.ok()) {
        return s;
      }
      if (actions[j] >= num_actions.value()) {
        return util::InvalidArgumentError(
            name + ": implementation " + std::to_string(i) +
            " references action id " + std::to_string(actions[j]) +
            " out of range [0, " + std::to_string(num_actions.value()) + ")");
      }
    }
    builder.AddImplementationIds(goal, std::move(actions));
  }
  if (cur.remaining() != 0) {
    return util::InvalidArgumentError(
        name + ": trailing bytes in implementation frame");
  }
  return std::move(builder).Build();
}

namespace {

util::Status PosixError(const std::string& what, const std::string& path) {
  return util::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Writes `bytes` to `fd` fully, retrying short writes.
util::Status WriteAll(int fd, std::string_view bytes,
                      const std::string& path) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return PosixError("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return util::Status::Ok();
}

/// Owns a file descriptor and closes it on scope exit.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

util::Status SaveSnapshot(const ImplementationLibrary& library,
                          const std::string& path) {
  return AtomicWriteFile(EncodeSnapshot(library), path);
}

util::Status AtomicWriteFile(std::string_view bytes, const std::string& path) {
  // Same-directory temp name so the rename stays within one filesystem.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return PosixError("open", tmp);
  util::Status status = WriteAll(fd, bytes, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = PosixError("fsync", tmp);
  if (::close(fd) != 0 && status.ok()) status = PosixError("close", tmp);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = PosixError("rename", tmp + " -> " + path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  // Persist the rename itself: fsync the parent directory.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return PosixError("open directory", dir);
  if (::fsync(dir_fd) != 0) {
    util::Status dir_status = PosixError("fsync directory", dir);
    ::close(dir_fd);
    return dir_status;
  }
  ::close(dir_fd);
  return util::Status::Ok();
}

util::StatusOr<std::string> ReadFileToString(const std::string& path,
                                             uint64_t max_bytes) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return util::IoError("cannot open " + path);
  struct stat st {};
  const uint64_t size_hint =
      ::fstat(fd.get(), &st) == 0 && S_ISREG(st.st_mode)
          ? static_cast<uint64_t>(st.st_size)
          : 0;
  if (size_hint > max_bytes) {
    return util::ResourceExhaustedError(
        path + ": file is " + std::to_string(size_hint) +
        " bytes, over the load cap of " + std::to_string(max_bytes));
  }
  // One byte past the size hint, so a file that did not grow reads to EOF
  // without regrowing the buffer. The cap is enforced on the bytes actually
  // read too: a file may grow after fstat, and pipes report no size.
  std::string bytes(static_cast<size_t>(size_hint) + 1, '\0');
  size_t len = 0;
  for (;;) {
    if (len == bytes.size()) bytes.resize(len + kReadFileChunkBytes);
    const size_t want = std::min(kReadFileChunkBytes, bytes.size() - len);
    const ssize_t n = ::read(fd.get(), bytes.data() + len, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::IoError("read failed: " + path);
    }
    if (n == 0) break;
    len += static_cast<size_t>(n);
    if (len > max_bytes) {
      return util::ResourceExhaustedError(
          path + ": file is over the load cap of " +
          std::to_string(max_bytes) + " bytes");
    }
  }
  bytes.resize(len);
  return bytes;
}

util::StatusOr<ImplementationLibrary> LoadSnapshotFile(
    const std::string& path, const LoadOptions& options) {
  util::StatusOr<std::string> bytes =
      ReadFileToString(path, options.limits.max_file_bytes);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshot(bytes.value(), path, options);
}

}  // namespace goalrec::model
