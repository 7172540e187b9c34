#include "util/crc32c.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace goalrec::util {
namespace {

// Bit-at-a-time CRC32C straight from the definition (reflected polynomial
// 0x82F63B78), independent of both production paths.
uint32_t ReferenceCrc32c(uint32_t crc, const unsigned char* p, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformUint32(256));
  }
  return bytes;
}

// Both paths, and the dispatching entry point, against the reference at
// every start alignment 0-7 and every length 0-4096, from a non-zero
// running CRC too.
TEST(Crc32cTest, BothPathsMatchTheBitwiseReference) {
  const bool hardware = detail::HasHardwareCrc32c();
  if (!hardware) {
    std::printf("no SSE4.2 on this CPU: checking the table path only\n");
  }
  const std::vector<unsigned char> bytes = RandomBytes(4096 + 8, 11);
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* p = bytes.data() + align;
    for (uint32_t start : {0u, 0x9E3779B9u}) {
      // The reference over p[0, n) grows one byte per length.
      uint32_t want = start;
      for (size_t n = 0; n <= 4096; ++n) {
        if (n > 0) want = ReferenceCrc32c(want, p + n - 1, 1);
        ASSERT_EQ(detail::ExtendCrc32cTable(start, p, n), want)
            << "table, alignment " << align << " length " << n;
        if (hardware) {
          ASSERT_EQ(detail::ExtendCrc32cHardware(start, p, n), want)
              << "hardware, alignment " << align << " length " << n;
        }
        ASSERT_EQ(ExtendCrc32c(start, p, n), want)
            << "dispatch, alignment " << align << " length " << n;
      }
    }
  }
}

TEST(Crc32cTest, BothPathsMatchTheReferenceOnALargeBuffer) {
  const std::vector<unsigned char> bytes = RandomBytes(3 << 20, 12);
  const uint32_t want = ReferenceCrc32c(0, bytes.data(), bytes.size());
  EXPECT_EQ(detail::ExtendCrc32cTable(0, bytes.data(), bytes.size()), want);
  if (detail::HasHardwareCrc32c()) {
    EXPECT_EQ(detail::ExtendCrc32cHardware(0, bytes.data(), bytes.size()),
              want);
  }
  EXPECT_EQ(ExtendCrc32c(0, bytes.data(), bytes.size()), want);
}

// Known-answer vectors from RFC 3720 (iSCSI) appendix B.4 and the standard
// check value.
TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  std::string ascending(32, '\0');
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<char>(i);
  }
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendMatchesWholeBuffer) {
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(payload);
  for (size_t split = 0; split <= payload.size(); ++split) {
    uint32_t crc = ExtendCrc32c(0, payload.data(), split);
    crc = ExtendCrc32c(crc, payload.data() + split, payload.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string payload(64, 'x');
  uint32_t original = Crc32c(payload);
  for (size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = payload;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(flipped), original)
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(UnmaskCrc32c(MaskCrc32c(crc)), crc);
    EXPECT_NE(MaskCrc32c(crc), crc);
  }
}

}  // namespace
}  // namespace goalrec::util
