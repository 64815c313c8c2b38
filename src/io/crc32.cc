#include "src/io/crc32.h"

#include <array>

namespace edsr::io {

namespace {

// Slicing-by-8 tables: kTables[0] is the bytewise table of the reflected
// polynomial, and kTables[t][i] is the CRC of byte i followed by t zero
// bytes, so eight table lookups advance the CRC over eight bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int t = 1; t < 8; ++t) {
      uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

// The little-endian value of four bytes, on any host byte order.
inline uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Tables kTables = MakeTables();
  const auto& t = kTables;
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; size -= 8, bytes += 8) {
    uint32_t lo = Load32(bytes) ^ crc;
    uint32_t hi = Load32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace edsr::io
