#ifndef WG_STORAGE_FILE_H_
#define WG_STORAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

// Thin POSIX file wrapper used by every disk-backed component (pager, graph
// store, uncompressed adjacency files). Counts physical reads/writes so the
// experiments can report I/O alongside time. Every fallible operation
// (open/read/write/sync/rename/dir-sync/remove) consults the installed
// Env (storage/env.h), which lets tests inject disk faults and power cuts
// without touching call sites.

namespace wg {

class RandomAccessFile {
 public:
  // Opens (creating if needed) `path` for read/write.
  static Result<std::unique_ptr<RandomAccessFile>> Open(
      const std::string& path);

  // Opens an existing `path` read-only; never creates it. A missing file
  // is NotFound. Every reader of a persisted file opens through this, so
  // looking for a store or a snapshot leaves nothing behind.
  static Result<std::unique_ptr<RandomAccessFile>> OpenForRead(
      const std::string& path);

  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  // Reads exactly `n` bytes at `offset` into `scratch`.
  Status Read(uint64_t offset, size_t n, char* scratch) const;

  // Writes exactly `n` bytes at `offset`.
  Status Write(uint64_t offset, const char* data, size_t n);

  Status Append(const char* data, size_t n);

  Status Sync();

  // Asks the kernel to drop this file's page-cache residency (fadvise
  // DONTNEED). Used by cold-read benchmarks; advisory, so best-effort.
  void EvictFromPageCache() const;

  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  uint64_t read_ops() const { return read_ops_; }
  uint64_t write_ops() const { return write_ops_; }
  uint64_t bytes_read() const { return bytes_read_; }

  // Disk-model accounting: a read is a "seek" unless it starts at (or
  // within kNearGap bytes after) the end of the previous read; skipped
  // near gaps are charged as transferred bytes. This is what makes the
  // paper's linear disk layout (Section 3.3) pay off: reading an intranode
  // graph followed by its superedge graphs costs one seek. The threshold
  // is the paper-testbed's 64 KiB head-sweep window scaled 1:1000, like
  // the data (at full scale, skipping more than that is cheaper done as a
  // seek).
  static constexpr uint64_t kNearGap = 64;
  uint64_t seek_ops() const { return seek_ops_; }
  uint64_t transferred_bytes() const { return transferred_bytes_; }

 private:
  RandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  static Result<std::unique_ptr<RandomAccessFile>> OpenWithFlags(
      const std::string& path, int flags);

  std::string path_;
  int fd_;
  uint64_t size_;
  mutable uint64_t read_ops_ = 0;
  uint64_t write_ops_ = 0;
  mutable uint64_t bytes_read_ = 0;
  mutable uint64_t seek_ops_ = 0;
  mutable uint64_t transferred_bytes_ = 0;
  mutable uint64_t last_read_end_ = UINT64_MAX;
};

// Removes a file if it exists; missing files are not an error.
Status RemoveFileIfExists(const std::string& path);

// Creates a directory (and parents) if absent.
Status EnsureDirectory(const std::string& path);

// Atomically renames `from` to `to` (::rename semantics). Durable only
// after SyncDirectory on the containing directory.
Status RenameFile(const std::string& from, const std::string& to);

// fsyncs a directory so entries created/renamed/removed in it survive a
// power cut. The second half of the write-temp-then-rename publication
// protocol.
Status SyncDirectory(const std::string& path);

}  // namespace wg

#endif  // WG_STORAGE_FILE_H_
