// Crash-consistency properties of the ".snap" snapshot format: exact id
// preservation across round-trips, deterministic encoding, and — the core
// robustness claim — that NO strict prefix and NO single-bit corruption of
// a valid snapshot is accepted by the loader. The truncation sweep is
// exhaustive (every byte boundary), modelling a write torn at any point.

#include "model/snapshot_io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "model/library.h"
#include "model/library_io.h"
#include "testing/fixtures.h"
#include "util/status.h"

namespace goalrec::model {
namespace {

using goalrec::testing::PaperLibrary;
using goalrec::testing::RandomLibrary;

IdSet Ids(std::span<const uint32_t> ids) {
  return IdSet(ids.begin(), ids.end());
}

// Snapshot round-trips must preserve numeric ids EXACTLY (unlike the text
// format, which only preserves named structure).
void ExpectLibrariesIdentical(const ImplementationLibrary& a,
                              const ImplementationLibrary& b) {
  ASSERT_EQ(a.num_actions(), b.num_actions());
  ASSERT_EQ(a.num_goals(), b.num_goals());
  ASSERT_EQ(a.num_implementations(), b.num_implementations());
  for (uint32_t i = 0; i < a.num_actions(); ++i) {
    EXPECT_EQ(a.actions().Name(i), b.actions().Name(i));
  }
  for (uint32_t i = 0; i < a.num_goals(); ++i) {
    EXPECT_EQ(a.goals().Name(i), b.goals().Name(i));
  }
  for (ImplId p = 0; p < a.num_implementations(); ++p) {
    EXPECT_EQ(a.GoalOf(p), b.GoalOf(p));
    EXPECT_EQ(Ids(a.ActionsOf(p)), Ids(b.ActionsOf(p)));
  }
}

TEST(SnapshotIoTest, EncodeDecodeRoundTripsExactly) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    ImplementationLibrary original = RandomLibrary(40, 15, 200, 6, seed);
    std::string bytes = EncodeSnapshot(original);
    util::StatusOr<ImplementationLibrary> decoded =
        DecodeSnapshot(bytes, "test");
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectLibrariesIdentical(original, *decoded);
  }
}

TEST(SnapshotIoTest, EncodingIsDeterministic) {
  ImplementationLibrary library = PaperLibrary();
  std::string first = EncodeSnapshot(library);
  std::string second = EncodeSnapshot(library);
  EXPECT_EQ(first, second);
  // Decode + re-encode is bit-identical: the format has one canonical
  // serialisation per library.
  util::StatusOr<ImplementationLibrary> decoded =
      DecodeSnapshot(first, "test");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(EncodeSnapshot(*decoded), first);
}

TEST(SnapshotIoTest, EmptyLibraryRoundTrips) {
  LibraryBuilder builder;
  ImplementationLibrary empty = std::move(builder).Build();
  std::string bytes = EncodeSnapshot(empty);
  util::StatusOr<ImplementationLibrary> decoded =
      DecodeSnapshot(bytes, "empty");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_actions(), 0u);
  EXPECT_EQ(decoded->num_goals(), 0u);
  EXPECT_EQ(decoded->num_implementations(), 0u);
}

// The torn-write model: a crash mid-write leaves a strict prefix. Every
// single prefix of a valid snapshot must be rejected — there is no byte
// boundary at which a truncated snapshot still parses.
TEST(SnapshotIoTest, EveryTruncationIsRejected) {
  std::string bytes = EncodeSnapshot(PaperLibrary());
  ASSERT_GT(bytes.size(), 0u);
  for (size_t n = 0; n < bytes.size(); ++n) {
    util::StatusOr<ImplementationLibrary> decoded =
        DecodeSnapshot(std::string_view(bytes.data(), n), "torn");
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes was accepted";
  }
}

// Bit rot: CRC32C detects every single-bit error, so flipping any one bit
// anywhere in the snapshot must make the loader reject it. One flip per
// byte position covers header, every frame, and the footer.
TEST(SnapshotIoTest, EveryByteBitFlipIsRejected) {
  std::string bytes = EncodeSnapshot(PaperLibrary());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ (1u << (i % 8)));
    util::StatusOr<ImplementationLibrary> decoded =
        DecodeSnapshot(corrupt, "bitrot");
    EXPECT_FALSE(decoded.ok()) << "bit flip at byte " << i << " was accepted";
  }
}

TEST(SnapshotIoTest, RejectsUnknownFormatVersion) {
  std::string bytes = EncodeSnapshot(PaperLibrary());
  // The u32 version field sits right after the 8-byte header magic.
  bytes[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  util::StatusOr<ImplementationLibrary> decoded =
      DecodeSnapshot(bytes, "future");
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos)
      << decoded.status().ToString();
}

TEST(SnapshotIoTest, RejectsGarbageAndTrailingBytes) {
  EXPECT_FALSE(DecodeSnapshot("", "empty").ok());
  EXPECT_FALSE(DecodeSnapshot("not a snapshot at all", "junk").ok());
  std::string zeros(256, '\0');
  EXPECT_FALSE(DecodeSnapshot(zeros, "zeros").ok());
  // Bytes appended after the footer displace the end magic.
  std::string padded = EncodeSnapshot(PaperLibrary()) + "extra";
  EXPECT_FALSE(DecodeSnapshot(padded, "padded").ok());
}

TEST(SnapshotIoTest, DecodeHonoursLoadLimits) {
  std::string bytes = EncodeSnapshot(RandomLibrary(40, 15, 200, 6, 9));
  LoadOptions tight;
  tight.limits.max_actions = 10;
  util::StatusOr<ImplementationLibrary> decoded =
      DecodeSnapshot(bytes, "capped", tight);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(SnapshotIoTest, FileRoundTripLeavesNoTempFiles) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("goalrec_snapio_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string path = (dir / "lib.snap").string();

  ImplementationLibrary original = RandomLibrary(30, 10, 120, 5, 17);
  ASSERT_TRUE(SaveSnapshot(original, path).ok());
  util::StatusOr<ImplementationLibrary> loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectLibrariesIdentical(original, *loaded);

  // Atomic publish over an existing file: replace with different content.
  ImplementationLibrary next = RandomLibrary(30, 10, 120, 5, 18);
  ASSERT_TRUE(SaveSnapshot(next, path).ok());
  util::StatusOr<ImplementationLibrary> reloaded = LoadSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectLibrariesIdentical(next, *reloaded);

  // The tmp staging file must be gone (renamed away) after every save.
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "lib.snap");
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotIoTest, FileOnDiskMatchesEncodeExactly) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "goalrec_snapio_bytes.snap")
                         .string();
  ImplementationLibrary library = PaperLibrary();
  ASSERT_TRUE(SaveSnapshot(library, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, EncodeSnapshot(library));
  std::remove(path.c_str());
}

TEST(SnapshotIoTest, LoadSnapshotFileRejectsMissingAndTornFiles) {
  EXPECT_FALSE(LoadSnapshotFile("/nonexistent/lib.snap").ok());
  std::string path = (std::filesystem::temp_directory_path() /
                      "goalrec_snapio_torn.snap")
                         .string();
  std::string bytes = EncodeSnapshot(PaperLibrary());
  // A non-atomic writer crashed halfway: the file holds half a snapshot.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  util::StatusOr<ImplementationLibrary> loaded = LoadSnapshotFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// --- ReadFileToString: bulk reads, the size cap, and its statuses. ---

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("goalrec_readfile_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ReadFileToStringTest, FileLargerThanOneChunkReadsExactly) {
  const std::string path = TempPath("large");
  std::string bytes(2 * kReadFileChunkBytes + 4097, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + i / 977) & 0xff);
  }
  WriteBytes(path, bytes);
  util::StatusOr<std::string> read = ReadFileToString(path, bytes.size());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), bytes);
  std::remove(path.c_str());
}

TEST(ReadFileToStringTest, EmptyFileReadsEmpty) {
  const std::string path = TempPath("empty");
  WriteBytes(path, "");
  util::StatusOr<std::string> read = ReadFileToString(path, 0);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().empty());
  std::remove(path.c_str());
}

TEST(ReadFileToStringTest, FileOverTheCapIsResourceExhausted) {
  const std::string path = TempPath("over_cap");
  WriteBytes(path, std::string(1000, 'x'));
  util::StatusOr<std::string> read = ReadFileToString(path, 999);
  EXPECT_EQ(read.status().code(), util::StatusCode::kResourceExhausted)
      << read.status().ToString();
  EXPECT_TRUE(ReadFileToString(path, 1000).ok());
  std::remove(path.c_str());
}

TEST(ReadFileToStringTest, CapAppliesToBytesReadFromAPipe) {
  // A FIFO reports no size, so only the bytes actually read can trip the
  // cap.
  const std::string path = TempPath("fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] { WriteBytes(path, std::string(3000, 'p')); });
  util::StatusOr<std::string> read = ReadFileToString(path, 2999);
  writer.join();
  EXPECT_EQ(read.status().code(), util::StatusCode::kResourceExhausted)
      << read.status().ToString();
  std::remove(path.c_str());
}

TEST(ReadFileToStringTest, MissingFileIsIoError) {
  util::StatusOr<std::string> read =
      ReadFileToString(TempPath("missing"), 1 << 20);
  EXPECT_EQ(read.status().code(), util::StatusCode::kIoError)
      << read.status().ToString();
}

}  // namespace
}  // namespace goalrec::model
