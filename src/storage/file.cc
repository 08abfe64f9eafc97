#include "storage/file.h"

#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace wg {

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
  if (fd_ >= 0) ::close(fd_);
}

void RandomAccessFile::EvictFromPageCache() const {
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
