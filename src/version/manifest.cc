#include "version/manifest.h"

#include "storage/file.h"
#include "storage/serial.h"
#include "util/coding.h"

namespace wg::version {

namespace {
// Bumped to WGM2 when blob entries gained per-blob CRCs, to WGM3 when
// intranode lists dropped their per-list id (pack blobs written under WGM2
// decode differently), and to WGM4 when the embedded resident state
// stopped storing blob ids and the inverse permutation.
constexpr char kManifestMagic[4] = {'W', 'G', 'M', '4'};
}  // namespace

Status Manifest::WriteTo(const std::string& path) const {
  std::string payload;
  PutVarint64(&payload, generation);
  PutVarint64(&payload, log_applied);
  PutVarint64(&payload, files.size());
  for (const std::string& f : files) {
    PutVarint64(&payload, f.size());
    payload.append(f);
  }
  PutVarint64(&payload, blobs.size());
  for (const ManifestBlob& b : blobs) {
    PutVarint32(&payload, b.file_index);
    PutVarint64(&payload, b.offset);
    PutVarint32(&payload, b.length);
    PutVarint32(&payload, b.crc);
    PutVarint64(&payload, b.hash.hi);
    PutVarint64(&payload, b.hash.lo);
  }
  PutVarint64(&payload, blobs_shared);
  PutVarint64(&payload, blobs_written);
  PutVarint64(&payload, resident.size());
  payload.append(resident);
  return WriteFramedFile(path, kManifestMagic, payload);
}

Result<Manifest> Manifest::ReadFrom(const std::string& path) {
  WG_ASSIGN_OR_RETURN(std::string payload,
                      ReadFramedFile(path, kManifestMagic));
  SerialCursor cursor(payload);
  Manifest m;
  uint64_t n_files = 0;
  if (!cursor.ReadVarint64(&m.generation) ||
      !cursor.ReadVarint64(&m.log_applied) ||
      !cursor.ReadVarint64(&n_files)) {
    return Status::Corruption("manifest: bad header");
  }
  m.files.resize(n_files);
  for (auto& f : m.files) {
    if (!cursor.ReadString(&f) || f.empty()) {
      return Status::Corruption("manifest: bad file name");
    }
  }
  uint64_t n_blobs = 0;
  if (!cursor.ReadVarint64(&n_blobs)) {
    return Status::Corruption("manifest: bad blob count");
  }
  m.blobs.resize(n_blobs);
  for (auto& b : m.blobs) {
    uint64_t hi = 0, lo = 0;
    if (!cursor.ReadVarint32(&b.file_index) || !cursor.ReadVarint64(&b.offset) ||
        !cursor.ReadVarint32(&b.length) || !cursor.ReadVarint32(&b.crc) ||
        !cursor.ReadVarint64(&hi) || !cursor.ReadVarint64(&lo) ||
        b.file_index >= m.files.size()) {
      return Status::Corruption("manifest: bad blob entry");
    }
    b.hash = {hi, lo};
  }
  if (!cursor.ReadVarint64(&m.blobs_shared) ||
      !cursor.ReadVarint64(&m.blobs_written) ||
      !cursor.ReadString(&m.resident)) {
    return Status::Corruption("manifest: bad trailer");
  }
  return m;
}

Result<std::unique_ptr<GraphStore>> Manifest::OpenStore(
    const std::string& dir, const GraphStore::Options& options) const {
  // Store file index of each referenced manifest file, in manifest order.
  std::vector<uint32_t> store_index(files.size(), UINT32_MAX);
  for (const ManifestBlob& b : blobs) store_index[b.file_index] = 0;
  std::vector<std::string> paths;
  for (size_t f = 0; f < files.size(); ++f) {
    if (store_index[f] == UINT32_MAX) continue;
    store_index[f] = static_cast<uint32_t>(paths.size());
    paths.push_back(dir + "/" + files[f]);
  }
  std::vector<GraphStore::BlobLocation> directory;
  directory.reserve(blobs.size());
  for (const ManifestBlob& b : blobs) {
    directory.push_back({store_index[b.file_index], b.offset, b.length, b.crc});
  }
  return GraphStore::OpenFiles(paths, std::move(directory), options);
}

Result<SNodeResidentState> Manifest::ParseResident() const {
  SerialCursor cursor(resident);
  return SNodeResidentState::Parse(&cursor);
}

Result<std::string> ReadCurrentName(const std::string& dir) {
  WG_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> current,
                      RandomAccessFile::OpenForRead(dir + "/CURRENT"));
  if (current->size() == 0 || current->size() > 256) {
    return Status::NotFound("snapshot: no CURRENT in " + dir);
  }
  std::string name(current->size(), '\0');
  WG_RETURN_IF_ERROR(current->Read(0, name.size(), name.data()));
  while (!name.empty() && (name.back() == '\n' || name.back() == '\0')) {
    name.pop_back();
  }
  return name;
}

}  // namespace wg::version
