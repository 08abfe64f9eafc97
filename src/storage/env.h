#ifndef WG_STORAGE_ENV_H_
#define WG_STORAGE_ENV_H_

#include <cstdint>
#include <string>

#include "util/status.h"

// The process-wide environment hook the POSIX file layer consults on every
// fallible operation. Production runs the default no-op Env; tests install
// a FaultInjectingEnv (storage/fault_env.h) to script short reads, EIO,
// ENOSPC, bit-flips, dropped syncs, and crash-at-syncpoint power cuts
// without touching any call site.
//
// Design note: this is a hook layer on the concrete RandomAccessFile
// rather than a LevelDB-style virtual Env/File hierarchy. Every store
// read is a pread through RandomAccessFile::Read, so one hook per syscall
// already sees every byte read, written, synced, renamed or removed; a
// vtable wrapper per file would add nothing the hooks cannot do.

namespace wg {

class Env {
 public:
  virtual ~Env() = default;

  // The installed environment; never null. Install(nullptr) restores the
  // default no-op instance. Not synchronized with in-flight file
  // operations: install before the code under test opens files.
  static Env* Current();
  static void Install(Env* env);

  // Called before ::open. A non-OK status fails the open.
  virtual Status OnOpen(const std::string& path);

  // Called after a successful pread of [offset, offset+n) into `scratch`.
  // May corrupt the buffer (bit-flips) or turn the read into a failure.
  virtual Status OnRead(const std::string& path, uint64_t offset, size_t n,
                        char* scratch);

  // Called before a pwrite of [offset, offset+n). May fail the write
  // (EIO/ENOSPC) or shorten it by lowering *allowed (a short write: the
  // first *allowed bytes land on disk, then the error is returned).
  virtual Status OnWrite(const std::string& path, uint64_t offset, size_t n,
                         size_t* allowed);

  // Called after the bytes of a write have landed (full or short).
  virtual void DidWrite(const std::string& path, uint64_t offset, size_t n);

  // Called before fsync. kDrop pretends success without syncing (the
  // lying-disk model); kFail returns an error; kSync runs the real fsync.
  enum class SyncAction { kSync, kDrop, kFail };
  virtual SyncAction OnSync(const std::string& path, Status* error);

  // Called after a real fsync succeeded (unsynced-data trackers clear).
  virtual void DidSync(const std::string& path);

  // Called before ::rename. Non-OK fails the rename.
  virtual Status OnRename(const std::string& from, const std::string& to);
  virtual void DidRename(const std::string& from, const std::string& to);

  // Called before/after fsync of a directory fd (SyncDirectory).
  virtual SyncAction OnSyncDir(const std::string& path, Status* error);
  virtual void DidSyncDir(const std::string& path);

  // Called before ::unlink (RemoveFileIfExists).
  virtual Status OnRemove(const std::string& path);
};

}  // namespace wg

#endif  // WG_STORAGE_ENV_H_
