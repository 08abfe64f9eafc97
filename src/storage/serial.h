#ifndef WG_STORAGE_SERIAL_H_
#define WG_STORAGE_SERIAL_H_

#include <string>

#include "util/status.h"

// Tiny framing layer shared by the persistence formats (graph files,
// S-Node metadata): a 4-byte magic, a fixed64 payload length, the payload,
// and a fixed32 checksum. Payload contents are written with the varint
// helpers from util/coding.h and read back through SerialCursor, which
// fails softly on truncation.

namespace wg {

// XOR-rotate checksum; guards truncation/corruption, not adversaries.
uint32_t SerialChecksum(const std::string& payload);

// Incremental form of SerialChecksum for single-pass streaming readers
// that never hold the whole payload: feeding the payload bytes in order
// through Update yields exactly SerialChecksum(payload).
class StreamingSerialChecksum {
 public:
  void Update(const char* data, size_t n) {
    uint32_t sum = sum_;
    for (size_t i = 0; i < n; ++i) {
      sum = (sum << 5) | (sum >> 27);
      sum ^= static_cast<uint8_t>(data[i]);
    }
    sum_ = sum;
  }
  uint32_t value() const { return sum_; }

 private:
  uint32_t sum_ = 0xabadcafe;
};

// Writes magic + length + payload + checksum to `path` (replacing it).
Status WriteFramedFile(const std::string& path, const char magic[4],
                       const std::string& payload);

// Reads and verifies a framed file, returning the payload. A missing file
// is NotFound (and is not created).
Result<std::string> ReadFramedFile(const std::string& path,
                                   const char magic[4]);

// Forward cursor over a payload with soft-failing readers.
class SerialCursor {
 public:
  SerialCursor(const char* data, size_t size) : data_(data), size_(size) {}
  explicit SerialCursor(const std::string& payload)
      : SerialCursor(payload.data(), payload.size()) {}

  bool ReadVarint64(uint64_t* v);
  bool ReadVarint32(uint32_t* v);
  bool ReadString(std::string* s);
  // Reads the count of a list whose every item takes at least one byte, so
  // the caller may size a container by it: false when the count exceeds
  // the bytes left, before anything is allocated.
  bool ReadCount(uint64_t* n);
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace wg

#endif  // WG_STORAGE_SERIAL_H_
