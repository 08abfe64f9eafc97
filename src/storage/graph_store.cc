#include "storage/graph_store.h"

#include <algorithm>
#include <cstdio>

#include "storage/integrity.h"
#include "storage/sigbus_guard.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace wg {

namespace {

// When a mapped read ends outside the current readahead window, an
// madvise(MADV_WILLNEED) window of this many bytes (or the read's length,
// if longer) opens at the read -- the paper's layout places a query's
// working set immediately after, so the kernel fetches it while we decode.
constexpr uint64_t kReadaheadBytes = 256 * 1024;

std::string BlobErrorDetail(const char* what, uint32_t id, uint32_t file_index,
                            uint64_t offset, uint32_t length) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "graph store: %s: blob %u (file %u offset %llu length %u)",
                what, id, file_index,
                static_cast<unsigned long long>(offset), length);
  return buf;
}

}  // namespace

Result<std::unique_ptr<GraphStore>> GraphStore::Create(std::string base_path,
                                                       Options options) {
  std::unique_ptr<GraphStore> store(
      new GraphStore(std::move(base_path), options));
  WG_RETURN_IF_ERROR(store->OpenNextFile());
  return store;
}

void GraphStore::AddFileSlot() {
  quarantined_.push_back(std::make_unique<std::atomic<bool>>(false));
}

Status GraphStore::OpenNextFile() {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%03zu", files_.size());
  std::string path = base_path_ + suffix;
  WG_RETURN_IF_ERROR(RemoveFileIfExists(path));
  auto file = RandomAccessFile::Open(path);
  if (!file.ok()) return file.status();
  files_.push_back(std::move(file).value());
  AddFileSlot();
  return Status::OK();
}

Result<uint32_t> GraphStore::Append(const std::vector<uint8_t>& blob) {
  if (read_only_ || mapped_) {
    return Status::InvalidArgument("graph store: attached read-only");
  }
  RandomAccessFile* file = files_.back().get();
  if (file->size() > 0 &&
      file->size() + blob.size() > options_.max_file_size) {
    WG_RETURN_IF_ERROR(OpenNextFile());
    file = files_.back().get();
  }
  BlobRef ref;
  ref.file_index = static_cast<uint32_t>(files_.size() - 1);
  ref.offset = file->size();
  ref.length = static_cast<uint32_t>(blob.size());
  ref.crc = blob.empty() ? 0 : Crc32(blob.data(), blob.size());
  if (!blob.empty()) {
    WG_RETURN_IF_ERROR(
        file->Append(reinterpret_cast<const char*>(blob.data()), blob.size()));
  }
  directory_.push_back(ref);
  total_bytes_ += blob.size();
  return static_cast<uint32_t>(directory_.size() - 1);
}

Status GraphStore::ReadBlobs(uint32_t first, uint32_t last,
                             std::vector<uint8_t>* scratch,
                             std::vector<BlobSpan>* out,
                             std::unique_lock<std::mutex>* pread_lock) const {
  if (first > last || last >= directory_.size()) {
    return Status::OutOfRange("graph store: bad blob range");
  }
  out->resize(last - first + 1);
  scratch->clear();
  uint32_t id = first;
  while (id <= last) {
    // Greedily take the run of blobs laid out back to back in one file.
    // Manifest-composed stores (version layer) can place consecutive ids
    // in different files or at non-adjacent offsets -- such neighbors get
    // their own read instead of one mis-sized span.
    const uint32_t file_index = directory_[id].file_index;
    uint32_t run_end = id;
    while (run_end < last &&
           directory_[run_end + 1].file_index == file_index &&
           directory_[run_end + 1].offset ==
               directory_[run_end].offset + directory_[run_end].length) {
      ++run_end;
    }
    const uint64_t begin = directory_[id].offset;
    const uint64_t end =
        directory_[run_end].offset + directory_[run_end].length;
    const RandomAccessFile& file = *files_[file_index];
    bool from_mapping = mapped_ && !FileQuarantined(file_index);
    for (uint32_t b = id; from_mapping && b <= run_end; ++b) {
      Status verified = EnsureMappedBlobVerified(b, directory_[b]);
      // Unavailable = the first touch SIGBUSed and the file was just
      // quarantined; serve this run through pread instead.
      if (verified.code() == StatusCode::kUnavailable) {
        from_mapping = false;
      } else {
        WG_RETURN_IF_ERROR(verified);
      }
    }
    const uint8_t* base;
    if (from_mapping) {
      base = file.mapped_data() + begin;
      // Readahead window: a run ending outside the current window opens a
      // fresh one at the run's start, covering the run and at least
      // kReadaheadBytes -- the layout places the rest of the section (and
      // the next sections of a sweep) right here, so the faults the decode
      // is about to take are batched instead of page-by-page.
      const uint64_t window = std::max<uint64_t>(kReadaheadBytes, end - begin);
      std::atomic<uint64_t>& edge = *readahead_edge_[file_index];
      uint64_t seen = edge.load(std::memory_order_relaxed);
      uint64_t window_start =
          seen > kReadaheadBytes ? seen - kReadaheadBytes : 0;
      if (end > begin && (seen == 0 || end > seen || end < window_start)) {
        edge.store(begin + window, std::memory_order_relaxed);
        file.Advise(begin, window, RandomAccessFile::Advice::kWillNeed);
      }
    } else {
      if (end > begin && pread_lock != nullptr && !pread_lock->owns_lock()) {
        pread_lock->lock();
      }
      if (scratch->empty()) {
        // Later pread runs append here too; reserving the rest of the range
        // now keeps the spans already handed out valid.
        uint64_t rest = 0;
        for (uint32_t b = id; b <= last; ++b) rest += directory_[b].length;
        scratch->reserve(rest);
      }
      size_t at = scratch->size();
      scratch->resize(at + (end - begin));
      uint8_t* dst = scratch->data() + at;
      if (end > begin) {
        WG_RETURN_IF_ERROR(
            file.Read(begin, end - begin, reinterpret_cast<char*>(dst)));
      }
      base = dst;
    }
    for (uint32_t b = id; b <= run_end; ++b) {
      const BlobRef& ref = directory_[b];
      const uint8_t* data =
          ref.length == 0 ? nullptr : base + (ref.offset - begin);
      if (!from_mapping && ref.length > 0 &&
          Crc32(data, ref.length) != ref.crc) {
        ++IntegrityCounters::Get().checksum_failures;
        return Status::Corruption(BlobErrorDetail(
            "checksum mismatch", b, ref.file_index, ref.offset, ref.length));
      }
      (*out)[b - first] = {data, ref.length};
    }
    id = run_end + 1;
  }
  return Status::OK();
}

Status GraphStore::ReadBlob(uint32_t id, std::vector<uint8_t>* out) const {
  std::vector<uint8_t> scratch;
  std::vector<BlobSpan> span;
  WG_RETURN_IF_ERROR(ReadBlobs(id, id, &scratch, &span));
  out->assign(span[0].data, span[0].data + span[0].length);
  return Status::OK();
}

Status GraphStore::MapForRead() {
  if (mapped_) return Status::OK();
  // Directory-recorded extent each file must cover. A file shorter than
  // its extents (truncated behind our back, or a directory/manifest that
  // does not match the bytes) must not be mapped: spans into the missing
  // tail would SIGBUS on first touch. Such files serve via pread, where
  // every read is bounds-checked by the kernel and CRC-verified.
  std::vector<uint64_t> required(files_.size(), 0);
  for (const BlobRef& ref : directory_) {
    uint64_t end = ref.offset + ref.length;
    if (end > required[ref.file_index]) required[ref.file_index] = end;
  }
  for (size_t f = 0; f < files_.size(); ++f) {
    auto on_disk = files_[f]->CurrentSize();
    if (!on_disk.ok() || on_disk.value() < required[f]) {
      QuarantineFile(static_cast<uint32_t>(f));
      continue;
    }
    if (!files_[f]->MapReadOnly().ok()) {
      QuarantineFile(static_cast<uint32_t>(f));
    }
  }
  readahead_edge_.clear();
  readahead_edge_.reserve(files_.size());
  for (size_t f = 0; f < files_.size(); ++f) {
    readahead_edge_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }
  size_t words = (directory_.size() + 63) / 64;
  verified_ok_.reset(new std::atomic<uint64_t>[words]());
  verified_bad_.reset(new std::atomic<uint64_t>[words]());
  mapped_ = true;
  return Status::OK();
}

void GraphStore::QuarantineFile(uint32_t file_index) const {
  if (!quarantined_[file_index]->exchange(true, std::memory_order_acq_rel)) {
    ++IntegrityCounters::Get().mmap_fallbacks;
  }
}

Status GraphStore::EnsureMappedBlobVerified(uint32_t id,
                                            const BlobRef& ref) const {
  if (ref.length == 0) return Status::OK();
  std::atomic<uint64_t>& ok_word = verified_ok_[id / 64];
  uint64_t bit = 1ULL << (id % 64);
  if (ok_word.load(std::memory_order_relaxed) & bit) return Status::OK();
  if (verified_bad_[id / 64].load(std::memory_order_relaxed) & bit) {
    return Status::Corruption(BlobErrorDetail(
        "checksum mismatch", id, ref.file_index, ref.offset, ref.length));
  }
  const uint8_t* base = files_[ref.file_index]->mapped_data();
  uint32_t actual = 0;
  {
    // First touch of this blob through the mapping: the pages may be
    // beyond the file's real end (lost sectors, truncation after map), in
    // which case the CRC pass itself SIGBUSes. Catch it, demote the whole
    // file to pread, and fail just this read.
    SigbusGuard guard;
    if (sigsetjmp(guard.jump_buffer(), 1) != 0) {
      ++IntegrityCounters::Get().sigbus_faults;
      QuarantineFile(ref.file_index);
      return Status::Unavailable(BlobErrorDetail(
          "SIGBUS on mapped read; file quarantined to pread", id,
          ref.file_index, ref.offset, ref.length));
    }
    actual = Crc32(base + ref.offset, ref.length);
  }
  if (actual != ref.crc) {
    verified_bad_[id / 64].fetch_or(bit, std::memory_order_relaxed);
    ++IntegrityCounters::Get().checksum_failures;
    return Status::Corruption(BlobErrorDetail(
        "checksum mismatch", id, ref.file_index, ref.offset, ref.length));
  }
  ok_word.fetch_or(bit, std::memory_order_relaxed);
  return Status::OK();
}

Status GraphStore::VerifyBlob(uint32_t id) const {
  if (id >= directory_.size()) {
    return Status::OutOfRange("graph store: blob id out of range");
  }
  const BlobRef& ref = directory_[id];
  if (ref.length == 0) return Status::OK();
  if (ref.offset + ref.length > files_[ref.file_index]->size()) {
    return Status::Corruption(BlobErrorDetail(
        "blob outside file", id, ref.file_index, ref.offset, ref.length));
  }
  std::vector<uint8_t> buffer(ref.length);
  WG_RETURN_IF_ERROR(files_[ref.file_index]->Read(
      ref.offset, ref.length, reinterpret_cast<char*>(buffer.data())));
  if (Crc32(buffer.data(), ref.length) != ref.crc) {
    return Status::Corruption(BlobErrorDetail(
        "checksum mismatch", id, ref.file_index, ref.offset, ref.length));
  }
  return Status::OK();
}

Status GraphStore::SyncAll() const {
  for (const auto& file : files_) {
    WG_RETURN_IF_ERROR(file->Sync());
  }
  return Status::OK();
}

void GraphStore::EvictFromPageCache() const {
  for (const auto& file : files_) file->EvictFromPageCache();
  for (const auto& edge : readahead_edge_) {
    edge->store(0, std::memory_order_relaxed);
  }
}

void GraphStore::SerializeDirectory(std::string* payload) const {
  PutVarint64(payload, files_.size());
  PutVarint64(payload, directory_.size());
  for (const BlobRef& ref : directory_) {
    PutVarint32(payload, ref.file_index);
    PutVarint64(payload, ref.offset);
    PutVarint32(payload, ref.length);
    PutVarint32(payload, ref.crc);
  }
}

Result<std::unique_ptr<GraphStore>> GraphStore::OpenExisting(
    const std::string& base_path, Options options, SerialCursor* cursor) {
  uint64_t num_files = 0, num_blobs = 0;
  if (!cursor->ReadVarint64(&num_files) ||
      !cursor->ReadVarint64(&num_blobs)) {
    return Status::Corruption("graph store: bad directory header");
  }
  std::vector<BlobLocation> directory;
  for (uint64_t b = 0; b < num_blobs; ++b) {
    BlobLocation loc;
    if (!cursor->ReadVarint32(&loc.file_index) ||
        !cursor->ReadVarint64(&loc.offset) ||
        !cursor->ReadVarint32(&loc.length) || !cursor->ReadVarint32(&loc.crc)) {
      return Status::Corruption("graph store: bad directory entry");
    }
    directory.push_back(loc);
  }
  std::vector<std::string> paths;
  for (uint64_t f = 0; f < num_files; ++f) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".%03llu",
                  static_cast<unsigned long long>(f));
    paths.push_back(base_path + suffix);
  }
  return OpenFiles(paths, std::move(directory), options);
}

Result<std::unique_ptr<GraphStore>> GraphStore::OpenFiles(
    const std::vector<std::string>& paths,
    std::vector<BlobLocation> directory, Options options) {
  std::unique_ptr<GraphStore> store(new GraphStore("", options));
  store->read_only_ = true;
  for (const std::string& path : paths) {
    auto file = RandomAccessFile::OpenForRead(path);
    if (!file.ok()) return file.status();
    store->files_.push_back(std::move(file).value());
    store->AddFileSlot();
  }
  store->directory_.reserve(directory.size());
  for (const BlobLocation& loc : directory) {
    if (loc.file_index >= store->files_.size()) {
      return Status::Corruption("graph store: blob references unknown file");
    }
    const uint64_t file_size = store->files_[loc.file_index]->size();
    if (loc.offset > file_size || loc.length > file_size - loc.offset) {
      return Status::Corruption("graph store: blob outside file");
    }
    store->directory_.push_back(
        {loc.file_index, loc.length, loc.offset, loc.crc});
    store->total_bytes_ += loc.length;
  }
  if (options.mmap) {
    WG_RETURN_IF_ERROR(store->MapForRead());
  }
  return store;
}

uint64_t GraphStore::seek_ops() const {
  uint64_t total = 0;
  for (const auto& f : files_) total += f->seek_ops();
  return total;
}

uint64_t GraphStore::transferred_bytes() const {
  uint64_t total = 0;
  for (const auto& f : files_) total += f->transferred_bytes();
  return total;
}

}  // namespace wg
