// Seeded malformed-input fuzzing for the two library parsers (text and
// snapshot). The contract under test is narrow and absolute: for
// ANY input bytes, in strict and in quarantine mode, the loader returns a
// Status — it never crashes, never hangs, and never allocates proportionally
// to an adversarial declared count. scripts/check.sh runs this binary under
// ASan/UBSan where an out-of-bounds read or overflow becomes a hard failure.
//
// The corpus is handcrafted adversarial cases (giant declared counts in
// CRC-valid snapshot frames, out-of-range and duplicate ids, non-UTF8 junk,
// empty files) plus seeded random mutations — truncations, bit flips, byte
// splices — of valid files in every format. Random bytes almost never pass
// a snapshot's CRCs, so the giant-count cases are framed and checksummed by
// hand to reach the decoder's caps.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/library.h"
#include "model/library_io.h"
#include "model/snapshot_io.h"
#include "model/validate.h"
#include "model/wire_format.h"
#include "testing/fixtures.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/status.h"

// Counts the bytes every operator new in this binary asks for, so a test can
// check that rejecting a hostile declared count allocated nothing in
// proportion to it.
namespace {
std::atomic<uint64_t> g_new_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// GCC pairs an inlined caller's new-expression with the free() below and
// reports -Wmismatched-new-delete; the pair is in fact matched, since the
// operator new above allocates with malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace goalrec::model {
namespace {

using goalrec::testing::RandomLibrary;

constexpr uint64_t kFuzzSeed = 20260808;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

using wire::AppendU32;

// Snapshot frame tags (model/snapshot_io.h layout).
constexpr uint32_t kTagActions = 1;
constexpr uint32_t kTagGoals = 2;
constexpr uint32_t kTagImpls = 3;

/// A vocabulary payload: `declared` count, then the names actually present.
std::string Vocab(uint32_t declared, const std::vector<std::string>& names) {
  std::string payload;
  AppendU32(&payload, declared);
  for (const std::string& name : names) {
    AppendU32(&payload, static_cast<uint32_t>(name.size()));
    payload += name;
  }
  return payload;
}

/// Raw little-endian u32 words: an implementations payload (count, then
/// records) or any other hand-built header.
std::string Words(const std::vector<uint32_t>& words) {
  std::string payload;
  for (uint32_t w : words) AppendU32(&payload, w);
  return payload;
}

/// A complete snapshot file around the three payloads, every CRC valid, so
/// the decoder gets past the footer and frame checks to its caps.
std::string FramedSnapshot(const std::string& actions,
                           const std::string& goals,
                           const std::string& impls) {
  std::string out = "GRSNAP1\n";
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, 0);  // flags
  const size_t frames_start = out.size();
  wire::AppendFrame(&out, kTagActions, actions);
  wire::AppendFrame(&out, kTagGoals, goals);
  wire::AppendFrame(&out, kTagImpls, impls);
  const uint64_t frames_len = out.size() - frames_start;
  wire::AppendU64(&out, frames_len);
  AppendU32(&out, util::MaskCrc32c(util::Crc32c(
                      std::string_view(out.data() + frames_start, frames_len))));
  out += "GRSNEND\n";
  return out;
}

// Caps for the hostile frames: every declared count below sits just under
// its LoadLimits cap, so only the frame-size bound stands between it and an
// allocation of tens of megabytes.
constexpr uint32_t kCap = 1u << 20;

LoadOptions HostileFrameOptions() {
  LoadOptions options;
  options.limits.max_actions = kCap;
  options.limits.max_goals = kCap;
  options.limits.max_implementations = kCap;
  options.limits.max_actions_per_impl = kCap;
  return options;
}

/// One CRC-valid hostile frame per cap the snapshot decoder enforces.
std::vector<std::pair<std::string, std::string>> HostileSnapshots() {
  const std::string one_action = Vocab(1, {"a"});
  const std::string one_goal = Vocab(1, {"g"});
  return {
      {"snap_giant_vocabulary_count",
       FramedSnapshot(Vocab(kCap - 1, {"a"}), one_goal, Words({0}))},
      {"snap_giant_name_length",
       FramedSnapshot(Words({1, kCap}) + "ab", one_goal, Words({0}))},
      {"snap_giant_implementation_count",
       FramedSnapshot(one_action, one_goal, Words({kCap - 1, 0, 1, 0}))},
      {"snap_giant_action_list",
       FramedSnapshot(one_action, one_goal, Words({1, 0, kCap - 1, 0}))},
  };
}

// Feeds `bytes` to every loader in every validation mode. The assertions
// are implicit: no crash, no sanitizer report, and any library that IS
// accepted passes structural validation (a parser must never hand out an
// index-inconsistent library, whatever the input).
void ExerciseLoaders(const std::string& bytes, const std::string& tag) {
  SCOPED_TRACE(tag);
  for (ValidationMode mode : {ValidationMode::kStrict,
                              ValidationMode::kQuarantine}) {
    LoadOptions options;
    options.mode = mode;
    // Tight caps keep adversarial declared counts from costing real memory
    // while still letting small valid corpora load.
    options.limits.max_file_bytes = 1 << 20;
    options.limits.max_actions = 4096;
    options.limits.max_goals = 4096;
    options.limits.max_implementations = 8192;
    options.limits.max_actions_per_impl = 256;
    options.limits.max_name_bytes = 512;

    for (const char* name : {"goalrec_fuzz.txt", "goalrec_fuzz.snap"}) {
      std::string path = TempPath(name);
      WriteBytes(path, bytes);
      LoadReport report;
      util::StatusOr<ImplementationLibrary> loaded =
          LoadLibraryFile(path, options, &report);
      if (loaded.ok()) {
        EXPECT_TRUE(ValidateLibrary(*loaded).ok()) << name;
      }
      std::remove(path.c_str());
    }
  }
}

TEST(LibraryFuzzTest, HandcraftedAdversarialCorpus) {
  // Snapshot-shaped adversaries with valid CRCs and giant declared counts.
  std::vector<std::pair<std::string, std::string>> corpus = HostileSnapshots();
  corpus.emplace_back("empty", "");
  corpus.emplace_back("header_only", "# goalrec-library v1\n");
  corpus.emplace_back("header_no_newline", "# goalrec-library v1");
  corpus.emplace_back("no_header", "g1\ta1\ta2\n");
  corpus.emplace_back("lone_goal", "# goalrec-library v1\ng1\n");
  corpus.emplace_back("blank_fields", "# goalrec-library v1\n\t\t\n");
  corpus.emplace_back("non_utf8_junk",
                      "# goalrec-library v1\n\xff\xfe\x80\x01\tg\t\xc3\x28\n");
  corpus.emplace_back("embedded_nul",
                      std::string("# goalrec-library v1\ng\0\ta1\n", 27));
  corpus.emplace_back("crlf_soup", "# goalrec-library v1\r\ng1\ta1\r\n\r\n");
  corpus.emplace_back("giant_line",
                      "# goalrec-library v1\ng1\t" + std::string(4096, 'x') +
                          "\n");
  corpus.emplace_back("many_tabs",
                      "# goalrec-library v1\ng\t" + [] {
                        std::string fields;
                        for (int i = 0; i < 500; ++i) {
                          fields += "a" + std::to_string(i) + "\t";
                        }
                        return fields;
                      }() + "\n");

  // The retired length-prefixed binary format's magic with a giant count.
  corpus.emplace_back("legacy_binary_giant_count",
                      Words({0x47524C31u, 0xFFFFFFFFu}));

  // More CRC-valid snapshots: ids out of range, duplicate ids within one
  // record, a duplicate vocabulary name.
  corpus.emplace_back(
      "snap_ids_out_of_range",
      FramedSnapshot(Vocab(1, {"a"}), Vocab(1, {"g"}),
                     Words({1, /*goal=*/7, /*len=*/2, 0, /*action=*/99})));
  corpus.emplace_back(
      "snap_duplicate_ids",
      FramedSnapshot(Vocab(2, {"a", "b"}), Vocab(1, {"g"}),
                     Words({1, 0, /*len=*/3, 1, 1, 0})));
  corpus.emplace_back("snap_duplicate_names",
                      FramedSnapshot(Vocab(2, {"a", "a"}), Vocab(1, {"g"}),
                                     Words({0})));

  // Snapshot-shaped adversaries: valid magic, garbage after it.
  corpus.emplace_back("snap_magic_only", "GRSNAP1\n");
  corpus.emplace_back("snap_magic_junk",
                      "GRSNAP1\n" + std::string(64, '\x5a') + "GRSNEND\n");

  for (const auto& [tag, bytes] : corpus) {
    ExerciseLoaders(bytes, tag);
  }
}

// Random mutations of VALID files: truncate at a random offset, flip a
// random bit, or splice random bytes. Every mutation of every format goes
// through every loader.
TEST(LibraryFuzzTest, SeededMutationsOfValidFilesNeverCrashLoaders) {
  ImplementationLibrary library = RandomLibrary(25, 10, 80, 5, 13);

  std::string text_path = TempPath("goalrec_fuzz_seed.txt");
  ASSERT_TRUE(SaveLibraryText(library, text_path).ok());
  std::vector<std::string> seeds = {ReadBytes(text_path),
                                    EncodeSnapshot(library)};
  std::remove(text_path.c_str());

  util::Rng rng(kFuzzSeed);
  constexpr int kMutationsPerSeed = 120;
  for (size_t s = 0; s < seeds.size(); ++s) {
    for (int m = 0; m < kMutationsPerSeed; ++m) {
      std::string bytes = seeds[s];
      uint32_t kind = rng.UniformUint32(3);
      if (kind == 0) {  // truncate
        bytes.resize(rng.UniformUint32(static_cast<uint32_t>(bytes.size())));
      } else if (kind == 1) {  // flip one bit
        uint32_t at = rng.UniformUint32(static_cast<uint32_t>(bytes.size()));
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.UniformUint32(8)));
      } else {  // splice a run of random bytes
        uint32_t at = rng.UniformUint32(static_cast<uint32_t>(bytes.size()));
        uint32_t run = 1 + rng.UniformUint32(16);
        for (uint32_t i = at; i < bytes.size() && i < at + run; ++i) {
          bytes[i] = static_cast<char>(rng.UniformUint32(256));
        }
      }
      ExerciseLoaders(bytes, "seed" + std::to_string(s) + "_mut" +
                                 std::to_string(m) + "_kind" +
                                 std::to_string(kind));
    }
  }
}

// Pure noise: uniformly random bytes of assorted sizes.
TEST(LibraryFuzzTest, RandomNoiseNeverCrashesLoaders) {
  util::Rng rng(kFuzzSeed, /*stream=*/7);
  for (uint32_t size : {1u, 7u, 16u, 64u, 255u, 1024u, 4096u}) {
    std::string bytes(size, '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.UniformUint32(256));
    ExerciseLoaders(bytes, "noise" + std::to_string(size));
  }
}

// Each hostile frame is CRC-valid, so it reaches the decoder's caps, and
// each must be refused as ResourceExhausted before the decoder allocates in
// proportion to the declared count (every proportional allocation here
// would be at least 4 MiB).
TEST(LibraryFuzzTest, CrcValidGiantCountsHitEveryDecoderCap) {
  // The frame builder is faithful: a well-formed library framed by hand is
  // byte-identical to EncodeSnapshot's output and decodes.
  LibraryBuilder builder;
  builder.AddImplementation("g", {"a"});
  ImplementationLibrary tiny = std::move(builder).Build();
  std::string framed =
      FramedSnapshot(Vocab(1, {"a"}), Vocab(1, {"g"}), Words({1, 0, 1, 0}));
  ASSERT_EQ(framed, EncodeSnapshot(tiny));
  ASSERT_TRUE(DecodeSnapshot(framed, "tiny", HostileFrameOptions()).ok());

  for (const auto& [tag, bytes] : HostileSnapshots()) {
    SCOPED_TRACE(tag);
    const uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
    util::StatusOr<ImplementationLibrary> decoded =
        DecodeSnapshot(bytes, tag, HostileFrameOptions());
    const uint64_t allocated =
        g_new_bytes.load(std::memory_order_relaxed) - before;
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kResourceExhausted)
        << decoded.status().ToString();
    EXPECT_LT(allocated, uint64_t{64} << 10);
  }
}

}  // namespace
}  // namespace goalrec::model
