#include "storage/pager.h"

#include <algorithm>
#include <cstring>

#include "obs/trace.h"

namespace wg {

void PagerStats::Register(obs::MetricRegistry& registry,
                          const obs::Labels& labels) {
  hits.Bind(registry, "wg_pager_hits_total", labels, "Buffer-pool hits");
  misses.Bind(registry, "wg_pager_misses_total", labels,
              "Buffer-pool demand misses (physical page reads)");
  evictions.Bind(registry, "wg_pager_evictions_total", labels,
                 "Frames evicted to make room");
  writes.Bind(registry, "wg_pager_writes_total", labels,
              "Physical page writes");
}

PageHandle::PageHandle(Pager* pager, uint32_t frame)
    : pager_(pager), frame_(frame) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pager_(other.pager_), frame_(other.frame_) {
  other.pager_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pager_ = other.pager_;
    frame_ = other.frame_;
    other.pager_ = nullptr;
  }
  return *this;
}

void PageHandle::Release() {
  if (pager_ != nullptr) {
    pager_->Unpin(frame_);
    pager_ = nullptr;
  }
}

char* PageHandle::data() { return pager_->frames_[frame_].data.get(); }
const char* PageHandle::data() const {
  return pager_->frames_[frame_].data.get();
}

void PageHandle::MarkDirty() { pager_->frames_[frame_].dirty = true; }

Pager::Pager(std::unique_ptr<RandomAccessFile> file, size_t num_frames)
    : file_(std::move(file)) {
  num_pages_ = file_->size() / kPageSize;
  frames_.resize(num_frames);
  for (uint32_t i = 0; i < num_frames; ++i) {
    frames_[i].data = std::make_unique<char[]>(kPageSize);
    free_frames_.push_back(i);
  }
}

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           size_t budget_bytes) {
  auto file = RandomAccessFile::Open(path);
  if (!file.ok()) return file.status();
  size_t num_frames = std::max<size_t>(8, budget_bytes / kPageSize);
  auto pager =
      std::unique_ptr<Pager>(new Pager(std::move(file).value(), num_frames));
  // Registers immortal {file,instance} series in the default registry
  // (see the series-lifetime note in obs/metrics.h): fine for a serving
  // process that opens its stores once, but a loop that churns pagers
  // grows the exposition without bound.
  pager->stats_.Register(
      obs::MetricRegistry::Default(),
      {{"file", path},
       {"instance", std::to_string(obs::NextInstanceId())}});
  return pager;
}

Result<PageNum> Pager::Allocate() {
  PageNum page = static_cast<PageNum>(num_pages_);
  ++num_pages_;
  // Materialize the page lazily: load it into a frame zeroed, dirty, so the
  // file grows on eviction/flush.
  WG_ASSIGN_OR_RETURN(uint32_t frame, PinFrame(page));
  std::memset(frames_[frame].data.get(), 0, kPageSize);
  frames_[frame].dirty = true;
  Unpin(frame);
  return page;
}

Result<PageHandle> Pager::Fetch(PageNum page) {
  if (page >= num_pages_) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " beyond file end");
  }
  WG_ASSIGN_OR_RETURN(uint32_t frame, PinFrame(page));
  return PageHandle(this, frame);
}

Result<uint32_t> Pager::PinFrame(PageNum page) {
  auto it = frame_of_page_.find(page);
  if (it != frame_of_page_.end()) {
    uint32_t frame = it->second;
    ++stats_.hits;
    if (frames_[frame].pins++ == 0) {
      // Remove from the eviction list while pinned.
      auto pos = lru_pos_.find(frame);
      if (pos != lru_pos_.end()) {
        lru_.erase(pos->second);
        lru_pos_.erase(pos);
      }
    }
    return frame;
  }
  ++stats_.misses;
  // Traced as the bottom of the request chain: service request -> repr
  // access -> (cache miss ->) pager load. Covers eviction write-back and
  // the physical read.
  obs::Span span("pager.load_page", "storage");
  span.AddArg("page", page);
  if (free_frames_.empty()) {
    WG_RETURN_IF_ERROR(EvictOne());
  }
  if (free_frames_.empty()) {
    return Status::ResourceExhausted("buffer pool: all frames pinned");
  }
  uint32_t frame = free_frames_.back();
  free_frames_.pop_back();
  Frame& f = frames_[frame];
  f.page = page;
  f.pins = 1;
  f.dirty = false;
  uint64_t offset = static_cast<uint64_t>(page) * kPageSize;
  if (offset + kPageSize <= file_->size()) {
    WG_RETURN_IF_ERROR(file_->Read(offset, kPageSize, f.data.get()));
  } else {
    // Freshly allocated page not yet written.
    std::memset(f.data.get(), 0, kPageSize);
  }
  frame_of_page_[page] = frame;
  return frame;
}

void Pager::Unpin(uint32_t frame) {
  Frame& f = frames_[frame];
  WG_DCHECK(f.pins > 0);
  if (--f.pins == 0) {
    lru_.push_front(frame);
    lru_pos_[frame] = lru_.begin();
  }
}

Status Pager::EvictOne() {
  if (lru_.empty()) {
    return Status::ResourceExhausted("buffer pool: nothing evictable");
  }
  uint32_t frame = lru_.back();
  lru_.pop_back();
  lru_pos_.erase(frame);
  Frame& f = frames_[frame];
  if (f.dirty) {
    uint64_t offset = static_cast<uint64_t>(f.page) * kPageSize;
    WG_RETURN_IF_ERROR(file_->Write(offset, f.data.get(), kPageSize));
    ++stats_.writes;
  }
  frame_of_page_.erase(f.page);
  f.page = kInvalidPageNum;
  free_frames_.push_back(frame);
  ++stats_.evictions;
  return Status::OK();
}

Status Pager::DropUnpinned() {
  WG_RETURN_IF_ERROR(Flush());
  while (!lru_.empty()) {
    WG_RETURN_IF_ERROR(EvictOne());
  }
  return Status::OK();
}

Status Pager::Flush() {
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.page != kInvalidPageNum && f.dirty) {
      uint64_t offset = static_cast<uint64_t>(f.page) * kPageSize;
      WG_RETURN_IF_ERROR(file_->Write(offset, f.data.get(), kPageSize));
      f.dirty = false;
      ++stats_.writes;
    }
  }
  return Status::OK();
}

}  // namespace wg
