#ifndef WG_UTIL_CRC32_H_
#define WG_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

// CRC-32 (IEEE 802.3 polynomial, reflected). Frames in the version
// subsystem's delta log use it to detect torn or corrupted records after a
// crash: unlike the xor-rotate SerialChecksum, a CRC catches burst errors
// and any single torn write inside a frame, which is exactly the failure
// mode of an append-only log cut mid-record. The graph store checks every
// blob it reads with it, so it is computed slicing-by-8: eight table
// lookups per eight input bytes, the same values as the bytewise table.

namespace wg {

// CRC of `data[0, n)` continuing from `seed` (pass 0 to start a new CRC).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace wg

#endif  // WG_UTIL_CRC32_H_
