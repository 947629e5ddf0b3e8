#include "src/util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SPARSIFY_CRC32C_HAS_SSE42 1
#endif

namespace sparsify {

namespace {

// 256-entry table for the reflected Castagnoli polynomial, built once at
// first use (constant-initialized would also work, but a runtime build
// keeps the table out of the binary image).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len) {
  static const Crc32cTable table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table.entries[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#ifdef SPARSIFY_CRC32C_HAS_SSE42

__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHardware(
    uint32_t crc, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // unaligned load
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool Crc32cHardwareAvailable() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#else

uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t len) {
  return Crc32cExtendTable(crc, data, len);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return Crc32cHardwareAvailable() ? Crc32cExtendHardware(crc, data, len)
                                   : Crc32cExtendTable(crc, data, len);
}

}  // namespace sparsify
