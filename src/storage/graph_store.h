#ifndef WG_STORAGE_GRAPH_STORE_H_
#define WG_STORAGE_GRAPH_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/file.h"
#include "storage/serial.h"
#include "util/status.h"

// The on-disk home of S-Node's intranode and superedge graphs (Section 3.3
// of the paper): a sequence of bounded-size "index files", each holding
// whole encoded graphs back to back in the caller-chosen linear order (the
// paper places each intranode graph immediately before its outgoing
// superedge graphs so one seek loads a query's working set). A blob never
// straddles a file boundary, matching the paper's "a given intranode or
// superedge graph was completely located within a single file".
//
// The directory (blob id -> file, offset, length) is kept in memory and is
// charged to the representation's resident-index budget, like the paper's
// PageID/domain indexes.
//
// Every read goes through ReadBlobs. The store alone decides, per file,
// whether bytes come from the mapping or from pread. It verifies every
// blob's CRC and demotes a file that faults to pread. Callers get spans
// and never see the fallback. What a read means above this layer belongs
// to SNodeRepr::ReadSectionBlobs (snode/snode_repr.h): section quarantine,
// the disk-model lock and the load counters.

namespace wg {

class GraphStore {
 public:
  struct Options {
    // The paper used 500 MB index files; our data sets are 1000x smaller,
    // so default to 512 KB to preserve the multi-file structure. At 1M+
    // pages the default produces thousands of files -- raise it (wgtool
    // build --max-file-size). Only Create reads it.
    uint64_t max_file_size = 512 * 1024;
    // Memory-map the store files on attach (OpenExisting/OpenFiles) so
    // blob reads are page-cache-backed pointer arithmetic instead of a
    // pread per blob. Ignored by Create (a store being appended cannot be
    // mapped); call MapForRead() once writing is done.
    bool mmap = false;
  };

  // Physical home of one blob, exposed so the version subsystem's
  // manifests can reference blobs across store generations (a manifest
  // maps dense per-generation blob ids onto an arbitrary set of pack
  // files, sharing unchanged blobs byte-identically between generations).
  // file_index is internal to the store it came from: pair it with that
  // store's FilePath.
  struct BlobLocation {
    uint32_t file_index;
    uint64_t offset;
    uint32_t length;
    // CRC32 of the blob bytes, checked on every read of a non-empty blob.
    uint32_t crc = 0;
  };

  // Creates a store writing files `<base_path>.000`, `<base_path>.001`, ...
  // Existing files with those names are truncated.
  static Result<std::unique_ptr<GraphStore>> Create(std::string base_path,
                                                    Options options);

  // Re-attaches to the files `<base_path>.NNN` using a directory
  // previously produced by SerializeDirectory: parses it and hands it to
  // OpenFiles. The store is read-only (appending after attach would
  // corrupt the serialized directory of any other reader and is
  // rejected).
  static Result<std::unique_ptr<GraphStore>> OpenExisting(
      const std::string& base_path, Options options, SerialCursor* cursor);

  // Read-only store over an explicit set of files with an explicit
  // directory: blob i lives at directory[i] inside paths[file_index].
  // The one attach path: it opens every file without creating any (a
  // missing one is NotFound) and rejects an entry that names an unknown
  // file or lies outside its file. A versioned snapshot generation reads
  // this way too: its manifest's blob table spans pack files written by
  // several earlier generations, so blob ids stay dense and
  // section-contiguous while the bytes are shared with whichever
  // generation first wrote them.
  static Result<std::unique_ptr<GraphStore>> OpenFiles(
      const std::vector<std::string>& paths,
      std::vector<BlobLocation> directory, Options options);

  // Appends the blob directory to *payload (varints), for the owner's
  // metadata file.
  void SerializeDirectory(std::string* payload) const;

  // Appends a blob in linear order; returns its dense id (0, 1, 2, ...).
  // Rejected on a store attached via OpenExisting.
  Result<uint32_t> Append(const std::vector<uint8_t>& blob);

  // A borrowed view of one blob's bytes: into a mapped store file (valid
  // for the life of the store) or into a caller's scratch buffer (valid
  // until that buffer changes). data is never null for length > 0.
  struct BlobSpan {
    const uint8_t* data = nullptr;
    uint32_t length = 0;
  };

  // The store's one read path: points (*out)[i] at blob first+i for every
  // blob in [first, last], CRC-verified.
  //  * A blob in a mapped file is served zero-copy from the mapping. It is
  //    verified on its first touch (the verdict is cached per blob) and
  //    covered by a readahead window.
  //  * Any other run of blobs laid out back to back in one file is read
  //    with one pread into *scratch and verified on every read: an
  //    unmapped store, a file quarantined to pread, or a file that
  //    SIGBUSes under the first touch (quarantined on the spot).
  // Callers never see Unavailable. When `pread_lock` is given and not yet
  // held, it is locked before the first pread and left locked on return,
  // so a caller can serialize physical reads and read the disk-model
  // counters under the same lock.
  Status ReadBlobs(uint32_t first, uint32_t last,
                   std::vector<uint8_t>* scratch, std::vector<BlobSpan>* out,
                   std::unique_lock<std::mutex>* pread_lock = nullptr) const;

  // Copies blob `id` into *out (ReadBlobs of one blob).
  Status ReadBlob(uint32_t id, std::vector<uint8_t>* out) const;

  // True once MapForRead() ran. Individual files may still be demoted to
  // pread (see FileQuarantined); ReadBlobs routes around them.
  bool mapped() const { return mapped_; }

  // Maps all files read-only. Valid on any store that is done being
  // written (OpenExisting/OpenFiles attach, or a Create store after its
  // last Append); appending afterwards is rejected. A file whose on-disk
  // size is shorter than the directory-recorded blob extents (truncated
  // behind our back) is not mapped: it is quarantined to the pread path
  // instead of serving out-of-bounds spans, and wg_integrity_mmap_fallbacks
  // is bumped. MapForRead itself only fails on invariant violations, not
  // on per-file fallbacks.
  Status MapForRead();

  // True when `file_index` is served by pread only: its mapping was
  // refused at MapForRead (short file) or revoked after a SIGBUS.
  bool FileQuarantined(uint32_t file_index) const {
    return quarantined_[file_index]->load(std::memory_order_acquire);
  }
  // Demotes a file to the pread path (idempotent).
  void QuarantineFile(uint32_t file_index) const;

  // pread-based CRC verification of one blob, bypassing any mapping (the
  // scrub path). OK for empty blobs.
  Status VerifyBlob(uint32_t id) const;

  // fsyncs every store file. Writers must call this before publishing a
  // manifest that references the blobs. (Logically const: nothing about
  // the store's state changes, only its durability.)
  Status SyncAll() const;

  // Best-effort page-cache eviction of every store file (cold-read
  // benchmarks; see RandomAccessFile::EvictFromPageCache).
  void EvictFromPageCache() const;

  size_t num_blobs() const { return directory_.size(); }
  size_t num_files() const { return files_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t blob_size(uint32_t id) const { return directory_[id].length; }
  uint32_t blob_crc(uint32_t id) const { return directory_[id].crc; }

  // Physical placement of blob `id` (for manifest composition).
  BlobLocation Location(uint32_t id) const {
    const BlobRef& ref = directory_[id];
    return {ref.file_index, ref.offset, ref.length, ref.crc};
  }
  const std::string& FilePath(uint32_t file_index) const {
    return files_[file_index]->path();
  }

  // In-memory size of the directory (a resident index).
  size_t DirectoryMemoryUsage() const {
    return directory_.size() * sizeof(BlobRef);
  }

  // Disk-model seeks / transferred bytes across all files.
  uint64_t seek_ops() const;
  uint64_t transferred_bytes() const;

 private:
  struct BlobRef {
    uint32_t file_index;
    uint32_t length;
    uint64_t offset;
    uint32_t crc;
  };

  GraphStore(std::string base_path, Options options)
      : base_path_(std::move(base_path)), options_(options) {}

  Status OpenNextFile();
  void AddFileSlot();
  // Mapped-read first-touch verification; returns OK when the blob's crc
  // checked out (or already did), Corruption on mismatch, Unavailable
  // after a SIGBUS (file quarantined). Requires mapped().
  Status EnsureMappedBlobVerified(uint32_t id, const BlobRef& ref) const;

  std::string base_path_;
  Options options_;
  std::vector<std::unique_ptr<RandomAccessFile>> files_;
  std::vector<BlobRef> directory_;
  uint64_t total_bytes_ = 0;
  bool read_only_ = false;
  bool mapped_ = false;
  // Last readahead window opened per file (one word per file, relaxed:
  // duplicate WILLNEEDs are harmless, missing one costs a demand fault).
  mutable std::vector<std::unique_ptr<std::atomic<uint64_t>>> readahead_edge_;
  // Per-file pread-only demotion flags (parallel to files_).
  mutable std::vector<std::unique_ptr<std::atomic<bool>>> quarantined_;
  // Per-blob first-touch verification verdicts for the mapped path, one
  // bit each; allocated by MapForRead. ok/bad are mutually exclusive.
  mutable std::unique_ptr<std::atomic<uint64_t>[]> verified_ok_;
  mutable std::unique_ptr<std::atomic<uint64_t>[]> verified_bad_;
};

}  // namespace wg

#endif  // WG_STORAGE_GRAPH_STORE_H_
