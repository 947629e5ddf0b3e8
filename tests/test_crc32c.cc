// CRC-32C: known answers from RFC 3720 (iSCSI) for both implementations,
// and agreement between the SSE4.2 and table paths at every length and
// alignment a record line can have.
#include "src/util/crc32c.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace sparsify {
namespace {

using CrcFn = uint32_t (*)(uint32_t, const void*, size_t);

std::vector<CrcFn> Implementations() {
  std::vector<CrcFn> fns = {&Crc32cExtendTable, &Crc32cExtend};
  if (Crc32cHardwareAvailable()) fns.push_back(&Crc32cExtendHardware);
  return fns;
}

TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  const std::vector<unsigned char> zeros(32, 0x00);
  const std::vector<unsigned char> ones(32, 0xff);
  std::vector<unsigned char> ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  for (CrcFn fn : Implementations()) {
    EXPECT_EQ(fn(0, check.data(), check.size()), 0xE3069283u);
    EXPECT_EQ(fn(0, zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(fn(0, ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(fn(0, ascending.data(), ascending.size()), 0x46DD794Eu);
    EXPECT_EQ(fn(0, nullptr, 0), 0u);
  }
  EXPECT_EQ(Crc32c(check), 0xE3069283u);
}

TEST(Crc32cTest, HardwareAndTableAgreeAtEveryLengthAndOffset) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 on this CPU: only the table path runs";
  }
  std::vector<unsigned char> buf(512 + 8);
  uint32_t state = 12345;
  for (unsigned char& b : buf) {
    state = state * 1103515245u + 12345u;
    b = static_cast<unsigned char>(state >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 512; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(Crc32cExtendHardware(0, p, len), Crc32cExtendTable(0, p, len))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32cExtendHardware(0xdeadbeef, p, len),
                Crc32cExtendTable(0xdeadbeef, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtendContinuesAMessage) {
  const std::string message = "{\"dataset\":\"d\",\"value\":0.25}";
  for (CrcFn fn : Implementations()) {
    for (size_t split = 0; split <= message.size(); ++split) {
      const uint32_t head = fn(0, message.data(), split);
      EXPECT_EQ(fn(head, message.data() + split, message.size() - split),
                Crc32c(message))
          << split;
    }
  }
}

}  // namespace
}  // namespace sparsify
