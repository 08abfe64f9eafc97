#include "storage/graph_store.h"

#include <cstdio>

#include "storage/integrity.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace wg {

namespace {

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

Status GraphStore::OpenNextFile() {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%03zu", files_.size());
  std::string path = base_path_ + suffix;
  WG_RETURN_IF_ERROR(RemoveFileIfExists(path));
  auto file = RandomAccessFile::Open(path);
  if (!file.ok()) return file.status();
  files_.push_back(std::move(file).value());
  return Status::OK();
}

Result<uint32_t> GraphStore::Append(const std::vector<uint8_t>& blob) {
  if (read_only_) {
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
                             std::vector<BlobSpan>* out) const {
  if (first > last || last >= directory_.size()) {
    return Status::OutOfRange("graph store: bad blob range");
  }
  uint64_t total = 0;
  for (uint32_t b = first; b <= last; ++b) total += directory_[b].length;
  scratch->resize(total);
  out->resize(last - first + 1);
  uint8_t* dst = scratch->data();
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
    const uint64_t length =
        directory_[run_end].offset + directory_[run_end].length - begin;
    if (length > 0) {
      WG_RETURN_IF_ERROR(files_[file_index]->Read(
          begin, length, reinterpret_cast<char*>(dst)));
    }
    for (uint32_t b = id; b <= run_end; ++b) {
      const BlobRef& ref = directory_[b];
      const uint8_t* data =
          ref.length == 0 ? nullptr : dst + (ref.offset - begin);
      if (data != nullptr && Crc32(data, ref.length) != ref.crc) {
        ++IntegrityCounters::Get().checksum_failures;
        return Status::Corruption(BlobErrorDetail(
            "checksum mismatch", b, ref.file_index, ref.offset, ref.length));
      }
      (*out)[b - first] = {data, ref.length};
    }
    dst += length;
    id = run_end + 1;
  }
  return Status::OK();
}

Status GraphStore::ReadBlob(uint32_t id, std::vector<uint8_t>* out) const {
  // ReadBlobs sizes its scratch to the blobs it reads, so one blob's
  // bytes fill *out exactly.
  std::vector<BlobSpan> span;
  return ReadBlobs(id, id, out, &span);
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
    const std::string& base_path, SerialCursor* cursor) {
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
  return OpenFiles(paths, std::move(directory));
}

Result<std::unique_ptr<GraphStore>> GraphStore::OpenFiles(
    const std::vector<std::string>& paths,
    std::vector<BlobLocation> directory) {
  std::unique_ptr<GraphStore> store(new GraphStore("", Options()));
  store->read_only_ = true;
  for (const std::string& path : paths) {
    auto file = RandomAccessFile::OpenForRead(path);
    if (!file.ok()) return file.status();
    store->files_.push_back(std::move(file).value());
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
