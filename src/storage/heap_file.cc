#include "storage/heap_file.h"

#include <cstring>

#include "util/coding.h"

namespace wg {

namespace {

// Data page layout:
//   [0]     type = 3
//   [2:4]   slot count (u16)
//   [4:8]   free-space offset (u32), payload grows up from 8
//   slots grow down from the page end: slot i = (offset u32, len u32)
//
// Overflow page layout:
//   [0]     type = 4
//   [4:8]   next overflow page (u32, kInvalidPageNum terminates)
//   [8:12]  bytes used in this page (u32)
//   data at 12.
//
// A row's slot payload starts with a 1-byte flag: 0 = inline bytes follow;
// 1 = u32 total length + u32 first overflow page follow.

constexpr size_t kDataHeader = 8;
constexpr size_t kSlotSize = 8;
constexpr size_t kOverflowHeader = 12;
constexpr size_t kOverflowCapacity = kPageSize - kOverflowHeader;

uint16_t SlotCount(const char* p) {
  uint16_t c;
  std::memcpy(&c, p + 2, 2);
  return c;
}
void SetSlotCount(char* p, uint16_t c) { std::memcpy(p + 2, &c, 2); }

uint32_t FreeOffset(const char* p) { return DecodeFixed32(p + 4); }
void SetFreeOffset(char* p, uint32_t v) { EncodeFixed32(p + 4, v); }

size_t SlotPos(uint16_t i) { return kPageSize - (i + 1) * kSlotSize; }

void ReadSlot(const char* p, uint16_t i, uint32_t* offset, uint32_t* len) {
  *offset = DecodeFixed32(p + SlotPos(i));
  *len = DecodeFixed32(p + SlotPos(i) + 4);
}

void WriteSlot(char* p, uint16_t i, uint32_t offset, uint32_t len) {
  EncodeFixed32(p + SlotPos(i), offset);
  EncodeFixed32(p + SlotPos(i) + 4, len);
}

size_t FreeBytes(const char* p) {
  return SlotPos(SlotCount(p)) - FreeOffset(p);
}

// Inline payloads must leave room for flag + slot entry on a fresh page.
constexpr size_t kMaxInline = kPageSize - kDataHeader - kSlotSize - 1 - 64;

}  // namespace

Result<std::unique_ptr<HeapFile>> HeapFile::Create(Pager* pager) {
  std::unique_ptr<HeapFile> heap(new HeapFile(pager));
  WG_RETURN_IF_ERROR(heap->StartNewDataPage());
  return heap;
}

Status HeapFile::StartNewDataPage() {
  WG_ASSIGN_OR_RETURN(PageNum page, pager_->Allocate());
  WG_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
  h.data()[0] = 3;
  SetSlotCount(h.data(), 0);
  SetFreeOffset(h.data(), kDataHeader);
  h.MarkDirty();
  current_ = page;
  return Status::OK();
}

Result<RowId> HeapFile::Append(const std::string& payload) {
  std::string record;
  if (payload.size() <= kMaxInline) {
    record.push_back('\0');
    record.append(payload);
  } else {
    // Spill to an overflow chain, writing pages front-to-back.
    PageNum first = kInvalidPageNum;
    PageNum prev = kInvalidPageNum;
    size_t pos = 0;
    while (pos < payload.size()) {
      WG_ASSIGN_OR_RETURN(PageNum page, pager_->Allocate());
      size_t take = std::min(kOverflowCapacity, payload.size() - pos);
      {
        WG_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
        h.data()[0] = 4;
        EncodeFixed32(h.data() + 4, kInvalidPageNum);
        EncodeFixed32(h.data() + 8, static_cast<uint32_t>(take));
        std::memcpy(h.data() + kOverflowHeader, payload.data() + pos, take);
        h.MarkDirty();
      }
      if (prev != kInvalidPageNum) {
        WG_ASSIGN_OR_RETURN(PageHandle ph, pager_->Fetch(prev));
        EncodeFixed32(ph.data() + 4, page);
        ph.MarkDirty();
      } else {
        first = page;
      }
      prev = page;
      pos += take;
    }
    record.push_back('\1');
    PutFixed32(&record, static_cast<uint32_t>(payload.size()));
    PutFixed32(&record, first);
  }

  // Place the record in the current data page, rolling over if full.
  for (int attempt = 0; attempt < 2; ++attempt) {
    WG_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(current_));
    char* p = h.data();
    if (FreeBytes(p) >= record.size() + kSlotSize) {
      uint16_t slot = SlotCount(p);
      uint32_t offset = FreeOffset(p);
      std::memcpy(p + offset, record.data(), record.size());
      WriteSlot(p, slot, offset, static_cast<uint32_t>(record.size()));
      SetFreeOffset(p, offset + static_cast<uint32_t>(record.size()));
      SetSlotCount(p, static_cast<uint16_t>(slot + 1));
      h.MarkDirty();
      ++num_rows_;
      return (static_cast<RowId>(current_) << 16) | slot;
    }
    h.Release();
    WG_RETURN_IF_ERROR(StartNewDataPage());
  }
  return Status::Internal("heap: record does not fit a fresh page");
}

Status HeapFile::Read(RowId row, std::string* payload) {
  PageNum page = static_cast<PageNum>(row >> 16);
  uint16_t slot = static_cast<uint16_t>(row & 0xffff);
  WG_ASSIGN_OR_RETURN(PageHandle h, pager_->Fetch(page));
  const char* p = h.data();
  if (p[0] != 3 || slot >= SlotCount(p)) {
    return Status::Corruption("heap: bad row id");
  }
  uint32_t offset, len;
  ReadSlot(p, slot, &offset, &len);
  if (len == 0 || offset + len > kPageSize) {
    return Status::Corruption("heap: bad slot");
  }
  if (p[offset] == '\0') {
    payload->assign(p + offset + 1, len - 1);
    return Status::OK();
  }
  if (len != 1 + 4 + 4) return Status::Corruption("heap: bad overflow stub");
  uint32_t total = DecodeFixed32(p + offset + 1);
  PageNum next = DecodeFixed32(p + offset + 5);
  h.Release();
  payload->clear();
  payload->reserve(total);
  while (next != kInvalidPageNum && payload->size() < total) {
    WG_ASSIGN_OR_RETURN(PageHandle oh, pager_->Fetch(next));
    const char* op = oh.data();
    if (op[0] != 4) return Status::Corruption("heap: bad overflow page");
    uint32_t used = DecodeFixed32(op + 8);
    if (used > kOverflowCapacity) {
      return Status::Corruption("heap: bad overflow length");
    }
    payload->append(op + kOverflowHeader, used);
    next = DecodeFixed32(op + 4);
  }
  if (payload->size() != total) {
    return Status::Corruption("heap: truncated overflow chain");
  }
  return Status::OK();
}

}  // namespace wg
