#include "storage/graph_store.h"

#include <cstdio>

#include "storage/integrity.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace wg {

namespace {

std::string SectionErrorDetail(const char* what, uint32_t s,
                               const GraphStore::Section& section) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "graph store: %s: section %u (file %u offset %llu length %u)",
                what, s, section.file_index,
                static_cast<unsigned long long>(section.offset),
                section.length);
  return buf;
}

}  // namespace

void GraphStore::Directory::Serialize(std::string* out) const {
  PutVarint64(out, sections.size());
  uint32_t graph = 0;
  for (const Section& section : sections) {
    PutVarint32(out, section.file_index);
    PutVarint64(out, section.offset);
    PutVarint32(out, section.crc);
    PutVarint32(out, section.num_graphs);
    for (uint32_t k = 0; k < section.num_graphs; ++k) {
      PutVarint32(out, graph_lengths[graph++]);
    }
  }
}

Result<GraphStore::Directory> GraphStore::Directory::Parse(
    SerialCursor* cursor) {
  Directory directory;
  uint64_t num_sections = 0;
  if (!cursor->ReadCount(&num_sections)) {
    return Status::Corruption("graph store: bad section count");
  }
  directory.sections.resize(num_sections);
  for (Section& section : directory.sections) {
    uint64_t num_graphs = 0;
    if (!cursor->ReadVarint32(&section.file_index) ||
        !cursor->ReadVarint64(&section.offset) ||
        !cursor->ReadVarint32(&section.crc) ||
        !cursor->ReadCount(&num_graphs) || num_graphs > UINT32_MAX) {
      return Status::Corruption("graph store: bad section entry");
    }
    section.num_graphs = static_cast<uint32_t>(num_graphs);
    uint64_t length = 0;
    for (uint64_t k = 0; k < num_graphs; ++k) {
      uint32_t graph_length = 0;
      if (!cursor->ReadVarint32(&graph_length)) {
        return Status::Corruption("graph store: bad graph length");
      }
      length += graph_length;
      directory.graph_lengths.push_back(graph_length);
    }
    if (length > UINT32_MAX) {
      return Status::Corruption("graph store: section longer than 4 GiB");
    }
    section.length = static_cast<uint32_t>(length);
  }
  return directory;
}

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

Result<uint32_t> GraphStore::AppendSection(
    const std::vector<std::vector<uint8_t>>& graphs) {
  if (read_only_) {
    return Status::InvalidArgument("graph store: attached read-only");
  }
  uint64_t length = 0;
  for (const std::vector<uint8_t>& graph : graphs) length += graph.size();
  if (length > UINT32_MAX) {
    return Status::InvalidArgument("graph store: section longer than 4 GiB");
  }
  RandomAccessFile* file = files_.back().get();
  if (file->size() > 0 && file->size() + length > options_.max_file_size) {
    WG_RETURN_IF_ERROR(OpenNextFile());
    file = files_.back().get();
  }
  Section section;
  section.file_index = static_cast<uint32_t>(files_.size() - 1);
  section.num_graphs = static_cast<uint32_t>(graphs.size());
  section.offset = file->size();
  section.length = static_cast<uint32_t>(length);
  for (const std::vector<uint8_t>& graph : graphs) {
    if (!graph.empty()) {
      WG_RETURN_IF_ERROR(file->Append(
          reinterpret_cast<const char*>(graph.data()), graph.size()));
    }
    section.crc = Crc32(graph.data(), graph.size(), section.crc);
    directory_.graph_lengths.push_back(static_cast<uint32_t>(graph.size()));
  }
  directory_.sections.push_back(section);
  first_graph_.push_back(static_cast<uint32_t>(num_graphs()));
  total_bytes_ += length;
  return static_cast<uint32_t>(num_sections() - 1);
}

Status GraphStore::ReadSection(uint32_t s, std::vector<uint8_t>* scratch,
                               std::vector<GraphSpan>* graphs) const {
  if (s >= num_sections()) {
    return Status::OutOfRange("graph store: section out of range");
  }
  const Section& section = directory_.sections[s];
  scratch->resize(section.length);
  if (section.length > 0) {
    WG_RETURN_IF_ERROR(files_[section.file_index]->Read(
        section.offset, section.length,
        reinterpret_cast<char*>(scratch->data())));
  }
  if (Crc32(scratch->data(), section.length) != section.crc) {
    ++IntegrityCounters::Get().checksum_failures;
    return Status::Corruption(
        SectionErrorDetail("checksum mismatch", s, section));
  }
  graphs->resize(section.num_graphs);
  const uint8_t* data = scratch->data();
  for (uint32_t k = 0; k < section.num_graphs; ++k) {
    const uint32_t length = directory_.graph_lengths[first_graph_[s] + k];
    (*graphs)[k] = {length == 0 ? nullptr : data, length};
    data += length;
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
  directory_.Serialize(payload);
}

Result<std::unique_ptr<GraphStore>> GraphStore::OpenExisting(
    const std::string& base_path, SerialCursor* cursor) {
  uint64_t num_files = 0;
  if (!cursor->ReadCount(&num_files)) {
    return Status::Corruption("graph store: bad directory header");
  }
  WG_ASSIGN_OR_RETURN(Directory directory, Directory::Parse(cursor));
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
    const std::vector<std::string>& paths, Directory directory) {
  std::unique_ptr<GraphStore> store(new GraphStore("", Options()));
  store->read_only_ = true;
  for (const std::string& path : paths) {
    auto file = RandomAccessFile::OpenForRead(path);
    if (!file.ok()) return file.status();
    store->files_.push_back(std::move(file).value());
  }
  uint64_t graph = 0;
  for (const Section& section : directory.sections) {
    if (section.file_index >= store->files_.size()) {
      return Status::Corruption("graph store: section references unknown file");
    }
    const uint64_t file_size = store->files_[section.file_index]->size();
    if (section.offset > file_size ||
        section.length > file_size - section.offset) {
      return Status::Corruption("graph store: section outside file");
    }
    if (section.num_graphs > directory.graph_lengths.size() - graph) {
      return Status::Corruption("graph store: sections list more graphs");
    }
    uint64_t length = 0;
    for (uint32_t k = 0; k < section.num_graphs; ++k) {
      length += directory.graph_lengths[graph++];
    }
    if (length != section.length) {
      return Status::Corruption(
          "graph store: section length is not its graphs' sum");
    }
    store->first_graph_.push_back(static_cast<uint32_t>(graph));
    store->total_bytes_ += section.length;
  }
  if (graph != directory.graph_lengths.size()) {
    return Status::Corruption("graph store: graphs outside every section");
  }
  store->directory_ = std::move(directory);
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
