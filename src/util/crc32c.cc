#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define GOALREC_CRC32C_SSE42 1
#endif

namespace goalrec::util {
namespace {

// Four 256-entry tables for slice-by-4, generated once at first use from the
// reflected Castagnoli polynomial. Table generation is deterministic, so the
// one-time static initialisation is thread-safe under C++11 semantics.
struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t slice = 1; slice < 4; ++slice) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn PickExtend() {
  return detail::HasHardwareCrc32c() ? detail::ExtendCrc32cHardware
                                     : detail::ExtendCrc32cTable;
}

}  // namespace

uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n) {
  static const ExtendFn extend = PickExtend();
  return extend(crc, data, n);
}

namespace detail {

uint32_t ExtendCrc32cTable(uint32_t crc, const void* data, size_t n) {
  const Crc32cTables& tables = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = tables.t[3][crc & 0xFFu] ^ tables.t[2][(crc >> 8) & 0xFFu] ^
          tables.t[1][(crc >> 16) & 0xFFu] ^ tables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = tables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef GOALREC_CRC32C_SSE42

bool HasHardwareCrc32c() {
  __builtin_cpu_init();  // safe even if first reached from a static ctor
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 regardless of -march; only called once the CPU check
// passed. Bytes up to an 8-byte boundary, then one 64-bit word per `crc32`,
// then the tail.
__attribute__((target("sse4.2"))) uint32_t ExtendCrc32cHardware(
    uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  uint64_t wide = c;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(wide);
  while (n-- > 0) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

#else

bool HasHardwareCrc32c() { return false; }

uint32_t ExtendCrc32cHardware(uint32_t crc, const void* data, size_t n) {
  return ExtendCrc32cTable(crc, data, n);
}

#endif

}  // namespace detail
}  // namespace goalrec::util
