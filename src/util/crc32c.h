// CRC-32C (Castagnoli), the store's per-record integrity check.
//
// On x86-64 CPUs with SSE4.2 the checksum runs on the `crc32` instruction,
// eight bytes per step, chosen at run time (no global -march is needed);
// elsewhere it runs from a 256-entry table. Both give identical values.
// Replay checksums every record of every log, so the hardware path keeps
// the checksum a small share of reading a store. The Castagnoli polynomial
// (0x1EDC6F41, reflected 0x82F63B78) is the variant used by iSCSI, ext4,
// and RocksDB; it detects all burst errors up to 32 bits and any odd
// number of bit flips, which is exactly the torn-write/bit-rot model the
// result store defends against.
#ifndef SPARSIFY_UTIL_CRC32C_H_
#define SPARSIFY_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sparsify {

/// CRC-32C of `len` bytes at `data` appended to a message whose CRC-32C is
/// `crc` (0 for the empty message): Crc32cExtend(Crc32c(a), b) equals
/// Crc32c(a followed by b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// CRC-32C of `len` bytes at `data` (init 0xFFFFFFFF, final xor-out — the
/// standard whole-message form).
inline uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

inline uint32_t Crc32c(std::string_view s) {
  return Crc32c(s.data(), s.size());
}

/// The two implementations behind Crc32cExtend, exposed so tests can check
/// that they agree. Crc32cExtendHardware may only be called when
/// Crc32cHardwareAvailable() is true.
uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len);
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t len);
bool Crc32cHardwareAvailable();

}  // namespace sparsify

#endif  // SPARSIFY_UTIL_CRC32C_H_
