#include "util/crc32.h"

namespace wg {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320, built
// at compile time. entry[0] is the bytewise table; entry[k][i] is the CRC
// of byte i followed by k zero bytes, so eight table lookups advance the
// CRC over eight input bytes at once.
struct Crc32Tables {
  uint32_t entry[8][256] = {};
  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entry[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t prev = entry[k - 1][i];
        entry[k][i] = entry[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

constexpr Crc32Tables kTables;

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto& t = kTables.entry;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    // The first four bytes fold into the running CRC, read little-endian
    // byte by byte so the result does not depend on the host's order.
    const uint32_t lo = c ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                             uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace wg
