#ifndef WG_STORAGE_PAGER_H_
#define WG_STORAGE_PAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/file.h"
#include "util/status.h"

// Page-granular storage with an LRU buffer pool. This is the substrate of
// the "relational database" baseline (the paper used PostgreSQL with its
// B-tree indexes under a fixed memory cap; our mini engine reproduces that
// access path: index lookup -> heap fetch -> buffer pool hit or disk read).
// Every page read is a demand read: Fetch loads the one page it was asked
// for, and nothing is read ahead.
//
// All pages live in a single file; components (B+tree, heap file) allocate
// pages from the shared Pager and address them by PageNum.

namespace wg {

inline constexpr size_t kPageSize = 8192;
using PageNum = uint32_t;
inline constexpr PageNum kInvalidPageNum = UINT32_MAX;

// obs::Counter keeps the counters data-race-free: page loads bump them on
// the pager's (single structural) thread while monitoring threads --
// wgserve metric dumps, test snapshots -- read them concurrently. The
// pager's structural state itself is still single-threaded (see server/
// for the concurrent path, which goes through SNodeRepr's sharded cache
// instead). Open() registers each instance's counters with the default
// metric registry (wg_pager_*_total{file=...,instance=...}).
struct PagerStats {
  obs::Counter hits;
  obs::Counter misses;  // demand misses => physical reads on the hot path
  obs::Counter evictions;
  obs::Counter writes;  // physical page writes

  // Binds the counters to registry-backed series; Reset-style whole-struct
  // assignment afterwards zeroes the cells but keeps the binding.
  void Register(obs::MetricRegistry& registry, const obs::Labels& labels);
};

class Pager;

// Pins one buffer frame for the lifetime of the handle. Holding a handle
// guarantees the frame is not evicted; MarkDirty schedules write-back.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(Pager* pager, uint32_t frame);
  ~PageHandle();
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  char* data();
  const char* data() const;
  void MarkDirty();
  bool valid() const { return pager_ != nullptr; }
  void Release();

 private:
  Pager* pager_ = nullptr;
  uint32_t frame_ = 0;
};

class Pager {
 public:
  // Opens/creates the backing file with a buffer budget in bytes (rounded
  // down to whole frames, minimum 8 frames so the B+tree can always pin a
  // root-to-leaf path).
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             size_t budget_bytes);

  // Appends a zeroed page to the file; returns its number.
  Result<PageNum> Allocate();

  // Pins the page into a frame (reading from disk on a miss).
  Result<PageHandle> Fetch(PageNum page);

  // Writes back all dirty frames.
  Status Flush();

  // Flushes, then drops every unpinned frame (cold-cache experiments).
  Status DropUnpinned();

  size_t num_pages() const { return num_pages_; }
  const PagerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PagerStats(); }

  // Bytes of buffer-pool memory (frames * page size).
  size_t memory_budget() const { return frames_.size() * kPageSize; }

  // Backing file, for disk-model accounting.
  const RandomAccessFile& file() const { return *file_; }

 private:
  friend class PageHandle;

  struct Frame {
    PageNum page = kInvalidPageNum;
    uint32_t pins = 0;
    bool dirty = false;
    std::unique_ptr<char[]> data;
  };

  Pager(std::unique_ptr<RandomAccessFile> file, size_t num_frames);

  Result<uint32_t> PinFrame(PageNum page);
  void Unpin(uint32_t frame);
  Status EvictOne();

  std::unique_ptr<RandomAccessFile> file_;
  size_t num_pages_ = 0;
  std::vector<Frame> frames_;
  std::unordered_map<PageNum, uint32_t> frame_of_page_;
  std::list<uint32_t> lru_;  // front = most recent; only unpinned listed
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> lru_pos_;
  std::vector<uint32_t> free_frames_;
  PagerStats stats_;
};

}  // namespace wg

#endif  // WG_STORAGE_PAGER_H_
