#include "version/scrub.h"

#include <cstdio>
#include <memory>
#include <utility>

#include "snode/snode_repr.h"
#include "version/manifest.h"

namespace wg::version {

std::string ScrubReport::ToString() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "scrubbed %llu sections (%llu bytes) in %zu files; %zu "
                "errors\n",
                static_cast<unsigned long long>(sections_checked),
                static_cast<unsigned long long>(bytes_checked), files.size(),
                errors.size());
  out += line;
  for (const ScrubError& e : errors) {
    std::snprintf(line, sizeof(line), "  section %u (file %u %s): ",
                  e.section, e.file_index, e.file.c_str());
    out += line;
    out += e.message;
    out += '\n';
  }
  return out;
}

Status ScrubStore(const GraphStore& store, ScrubReport* report) {
  for (uint32_t f = 0; f < store.num_files(); ++f) {
    report->files.push_back(store.FilePath(f));
  }
  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> graphs;
  for (uint32_t s = 0; s < store.num_sections(); ++s) {
    const GraphStore::Section& section = store.section(s);
    Status verified = store.ReadSection(s, &scratch, &graphs);
    ++report->sections_checked;
    if (verified.ok()) {
      report->bytes_checked += section.length;
      continue;
    }
    report->errors.push_back({s, section.file_index,
                              store.FilePath(section.file_index),
                              verified.ToString()});
  }
  return Status::OK();
}

Status ScrubSNodeStore(const std::string& base_path, ScrubReport* report) {
  // Opening reads only the `.meta`: its parse validates the frame CRC and
  // the resident shape before any pack is pread.
  WG_ASSIGN_OR_RETURN(std::unique_ptr<SNodeRepr> repr,
                      SNodeRepr::Open(base_path, {}));
  return ScrubStore(repr->store(), report);
}

Status ScrubSnapshotDir(const std::string& dir, ScrubReport* report) {
  WG_ASSIGN_OR_RETURN(std::string name, ReadCurrentName(dir));
  WG_ASSIGN_OR_RETURN(Manifest manifest, Manifest::ReadFrom(dir + "/" + name));
  WG_ASSIGN_OR_RETURN(std::unique_ptr<GraphStore> store,
                      manifest.OpenStore(dir));
  return ScrubStore(*store, report);
}

}  // namespace wg::version
