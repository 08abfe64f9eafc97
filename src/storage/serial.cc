#include "storage/serial.h"

#include <cstring>

#include "storage/file.h"
#include "util/coding.h"

namespace wg {

uint32_t SerialChecksum(const std::string& payload) {
  uint32_t sum = 0xabadcafe;
  for (size_t i = 0; i < payload.size(); ++i) {
    sum = (sum << 5) | (sum >> 27);
    sum ^= static_cast<uint8_t>(payload[i]);
  }
  return sum;
}

Status WriteFramedFile(const std::string& path, const char magic[4],
                       const std::string& payload) {
  WG_RETURN_IF_ERROR(RemoveFileIfExists(path));
  auto file = RandomAccessFile::Open(path);
  if (!file.ok()) return file.status();
  WG_RETURN_IF_ERROR(file.value()->Append(magic, 4));
  std::string header;
  PutFixed64(&header, payload.size());
  WG_RETURN_IF_ERROR(file.value()->Append(header.data(), header.size()));
  WG_RETURN_IF_ERROR(file.value()->Append(payload.data(), payload.size()));
  std::string footer;
  PutFixed32(&footer, SerialChecksum(payload));
  WG_RETURN_IF_ERROR(file.value()->Append(footer.data(), footer.size()));
  return file.value()->Sync();
}

Result<std::string> ReadFramedFile(const std::string& path,
                                   const char magic[4]) {
  auto file = RandomAccessFile::OpenForRead(path);
  if (!file.ok()) return file.status();
  uint64_t size = file.value()->size();
  if (size < 16) return Status::Corruption(path + ": too small");
  std::string head(12, '\0');
  WG_RETURN_IF_ERROR(file.value()->Read(0, 12, head.data()));
  if (std::memcmp(head.data(), magic, 4) != 0) {
    return Status::Corruption(path + ": bad magic");
  }
  uint64_t payload_size = DecodeFixed64(head.data() + 4);
  if (12 + payload_size + 4 != size) {
    return Status::Corruption(path + ": bad length");
  }
  std::string payload(payload_size, '\0');
  if (payload_size > 0) {
    WG_RETURN_IF_ERROR(file.value()->Read(12, payload_size, payload.data()));
  }
  std::string footer(4, '\0');
  WG_RETURN_IF_ERROR(file.value()->Read(12 + payload_size, 4, footer.data()));
  if (DecodeFixed32(footer.data()) != SerialChecksum(payload)) {
    return Status::Corruption(path + ": checksum mismatch");
  }
  return payload;
}

bool SerialCursor::ReadVarint64(uint64_t* v) {
  size_t used = GetVarint64(data_ + pos_, size_ - pos_, v);
  pos_ += used;
  return used > 0;
}

bool SerialCursor::ReadVarint32(uint32_t* v) {
  size_t used = GetVarint32(data_ + pos_, size_ - pos_, v);
  pos_ += used;
  return used > 0;
}

bool SerialCursor::ReadString(std::string* s) {
  uint64_t len = 0;
  // Compared against what is left, so a huge length cannot wrap the sum.
  if (!ReadVarint64(&len) || len > size_ - pos_) return false;
  s->assign(data_ + pos_, len);
  pos_ += len;
  return true;
}

bool SerialCursor::ReadCount(uint64_t* n) {
  return ReadVarint64(n) && *n <= size_ - pos_;
}

}  // namespace wg
