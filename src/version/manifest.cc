#include "version/manifest.h"

#include "storage/file.h"
#include "storage/serial.h"
#include "util/coding.h"

namespace wg::version {

namespace {
// Bumped to WGM2 when blob entries gained per-blob CRCs, to WGM3 when
// intranode lists dropped their per-list id (pack blobs written under WGM2
// decode differently), to WGM4 when the embedded resident state stopped
// storing blob ids and the inverse permutation, and to WGM5 when the blob
// table (location, CRC and content hash per blob) became the store's
// section directory.
constexpr char kManifestMagic[4] = {'W', 'G', 'M', '5'};
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
  directory.Serialize(&payload);
  PutVarint64(&payload, sections_shared);
  PutVarint64(&payload, sections_written);
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
      !cursor.ReadVarint64(&m.log_applied) || !cursor.ReadCount(&n_files)) {
    return Status::Corruption("manifest: bad header");
  }
  m.files.resize(n_files);
  for (auto& f : m.files) {
    if (!cursor.ReadString(&f) || f.empty()) {
      return Status::Corruption("manifest: bad file name");
    }
  }
  WG_ASSIGN_OR_RETURN(m.directory, GraphStore::Directory::Parse(&cursor));
  for (const GraphStore::Section& section : m.directory.sections) {
    if (section.file_index >= m.files.size()) {
      return Status::Corruption("manifest: section names an unknown file");
    }
  }
  if (!cursor.ReadVarint64(&m.sections_shared) ||
      !cursor.ReadVarint64(&m.sections_written) ||
      !cursor.ReadString(&m.resident)) {
    return Status::Corruption("manifest: bad trailer");
  }
  return m;
}

Result<std::unique_ptr<GraphStore>> Manifest::OpenStore(
    const std::string& dir) const {
  // Store file index of each referenced manifest file, in manifest order.
  std::vector<uint32_t> store_index(files.size(), UINT32_MAX);
  for (const GraphStore::Section& section : directory.sections) {
    if (section.file_index >= files.size()) {
      return Status::Corruption("manifest: section names an unknown file");
    }
    store_index[section.file_index] = 0;
  }
  std::vector<std::string> paths;
  for (size_t f = 0; f < files.size(); ++f) {
    if (store_index[f] == UINT32_MAX) continue;
    store_index[f] = static_cast<uint32_t>(paths.size());
    paths.push_back(dir + "/" + files[f]);
  }
  GraphStore::Directory opened = directory;
  for (GraphStore::Section& section : opened.sections) {
    section.file_index = store_index[section.file_index];
  }
  return GraphStore::OpenFiles(paths, std::move(opened));
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
