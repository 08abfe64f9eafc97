#include "storage/file.h"

#include "storage/env.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace wg {

namespace {

// System page size, fetched once (madvise wants page-aligned addresses).
uint64_t PageSize() {
  static const uint64_t size = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

int NativeAdvice(RandomAccessFile::Advice advice) {
  switch (advice) {
    case RandomAccessFile::Advice::kWillNeed:
      return MADV_WILLNEED;
    case RandomAccessFile::Advice::kSequential:
      return MADV_SEQUENTIAL;
    case RandomAccessFile::Advice::kRandom:
      return MADV_RANDOM;
    case RandomAccessFile::Advice::kDontNeed:
      return MADV_DONTNEED;
    case RandomAccessFile::Advice::kNormal:
      break;
  }
  return MADV_NORMAL;
}

}  // namespace

Result<std::unique_ptr<RandomAccessFile>> RandomAccessFile::Open(
    const std::string& path) {
  return OpenWithFlags(path, O_RDWR | O_CREAT);
}

Result<std::unique_ptr<RandomAccessFile>> RandomAccessFile::OpenForRead(
    const std::string& path) {
  return OpenWithFlags(path, O_RDONLY);
}

Result<std::unique_ptr<RandomAccessFile>> RandomAccessFile::OpenWithFlags(
    const std::string& path, int flags) {
  WG_RETURN_IF_ERROR(Env::Current()->OnOpen(path));
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    const int err = errno;
    std::string what = "open " + path + ": " + std::strerror(err);
    return err == ENOENT ? Status::NotFound(what) : Status::IOError(what);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + std::strerror(errno));
  }
  return std::unique_ptr<RandomAccessFile>(new RandomAccessFile(
      path, fd, static_cast<uint64_t>(st.st_size)));
}

RandomAccessFile::~RandomAccessFile() {
  if (mapped_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(mapped_), mapped_size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> RandomAccessFile::CurrentSize() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IOError("fstat " + path_ + ": " + std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

Status RandomAccessFile::MapReadOnly() {
  if (mapped_ != nullptr || size_ == 0) return Status::OK();
  void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap " + path_ + ": " + std::strerror(errno));
  }
  mapped_ = static_cast<const uint8_t*>(addr);
  mapped_size_ = size_;
  return Status::OK();
}

void RandomAccessFile::Advise(uint64_t offset, uint64_t length,
                              Advice advice) const {
  if (mapped_ == nullptr || offset >= mapped_size_) return;
  length = std::min(length, mapped_size_ - offset);
  // madvise wants a page-aligned start; widen left to the page boundary.
  uint64_t aligned = offset & ~(PageSize() - 1);
  ::madvise(const_cast<uint8_t*>(mapped_) + aligned,
            length + (offset - aligned), NativeAdvice(advice));
}

void RandomAccessFile::EvictFromPageCache() const {
  if (mapped_ != nullptr) {
    ::madvise(const_cast<uint8_t*>(mapped_), mapped_size_, MADV_DONTNEED);
  }
  if (fd_ >= 0) ::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
}

Status RandomAccessFile::Read(uint64_t offset, size_t n, char* scratch) const {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd_, scratch + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path_ + ": " + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IOError("pread " + path_ + ": short read");
    }
    done += static_cast<size_t>(r);
  }
  WG_RETURN_IF_ERROR(Env::Current()->OnRead(path_, offset, n, scratch));
  ++read_ops_;
  bytes_read_ += n;
  if (offset == last_read_end_) {
    transferred_bytes_ += n;
  } else if (last_read_end_ != UINT64_MAX && offset > last_read_end_ &&
             offset - last_read_end_ <= kNearGap) {
    // Near-sequential: pay the skipped gap as transfer, not a seek.
    transferred_bytes_ += (offset - last_read_end_) + n;
  } else {
    ++seek_ops_;
    transferred_bytes_ += n;
  }
  last_read_end_ = offset + n;
  return Status::OK();
}

Status RandomAccessFile::Write(uint64_t offset, const char* data, size_t n) {
  if (mapped_ != nullptr) {
    return Status::InvalidArgument("write to mmapped file " + path_);
  }
  Env* env = Env::Current();
  size_t allowed = n;
  Status injected = env->OnWrite(path_, offset, n, &allowed);
  size_t done = 0;
  while (done < allowed) {
    ssize_t r = ::pwrite(fd_, data + done, allowed - done,
                         static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      if (done > 0) env->DidWrite(path_, offset, done);
      return Status::IOError("pwrite " + path_ + ": " + std::strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  if (done > 0) env->DidWrite(path_, offset, done);
  ++write_ops_;
  if (offset + done > size_) size_ = offset + done;
  WG_RETURN_IF_ERROR(injected);
  return Status::OK();
}

Status RandomAccessFile::Append(const char* data, size_t n) {
  return Write(size_, data, n);
}

Status RandomAccessFile::Sync() {
  Env* env = Env::Current();
  Status injected;
  switch (env->OnSync(path_, &injected)) {
    case Env::SyncAction::kDrop:
      return Status::OK();
    case Env::SyncAction::kFail:
      return injected;
    case Env::SyncAction::kSync:
      break;
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  env->DidSync(path_);
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  WG_RETURN_IF_ERROR(Env::Current()->OnRemove(path));
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink " + path + ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  std::string prefix;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      prefix = path.substr(0, i);
      if (prefix.empty()) continue;
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        return Status::IOError("mkdir " + prefix + ": " +
                               std::strerror(errno));
      }
    }
  }
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  Env* env = Env::Current();
  WG_RETURN_IF_ERROR(env->OnRename(from, to));
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to + ": " +
                           std::strerror(errno));
  }
  env->DidRename(from, to);
  return Status::OK();
}

Status SyncDirectory(const std::string& path) {
  Env* env = Env::Current();
  Status injected;
  switch (env->OnSyncDir(path, &injected)) {
    case Env::SyncAction::kDrop:
      return Status::OK();
    case Env::SyncAction::kFail:
      return injected;
    case Env::SyncAction::kSync:
      break;
  }
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + path + ": " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status st =
        Status::IOError("fsync dir " + path + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  env->DidSyncDir(path);
  return Status::OK();
}

}  // namespace wg
