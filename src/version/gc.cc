#include "version/gc.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "storage/file.h"
#include "version/manifest.h"

namespace wg::version {

namespace {

Result<uint64_t> FileSizeOf(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("gc: stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

Status CollectGarbage(const std::string& dir, const GcOptions& options,
                      GcReport* report) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  obs::Counter scanned = registry.GetCounter(
      "wg_version_gc_scanned_total", {}, "Pack files examined by gc");
  obs::Counter candidates_counter = registry.GetCounter(
      "wg_version_gc_candidates_total", {},
      "Unreferenced pack files found by gc");
  obs::Counter removed = registry.GetCounter(
      "wg_version_gc_removed_total", {}, "Pack files unlinked by gc");
  obs::Counter reclaimed = registry.GetCounter(
      "wg_version_gc_reclaimed_bytes_total", {},
      "Bytes of pack files unlinked by gc");

  WG_ASSIGN_OR_RETURN(std::string manifest_name, ReadCurrentName(dir));
  WG_ASSIGN_OR_RETURN(Manifest manifest,
                      Manifest::ReadFrom(dir + "/" + manifest_name));

  // Referenced = packs some live section actually lives in. The
  // manifest's `files` table is append-only and may name packs no section
  // indexes anymore -- those are exactly the garbage.
  std::set<std::string> referenced;
  for (const GraphStore::Section& section : manifest.directory.sections) {
    referenced.insert(manifest.files[section.file_index]);
  }

  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IOError("gc: opendir " + dir);
  std::vector<std::string> candidates;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    // Only gen-* packs are ever eligible; everything else (CURRENT,
    // MANIFEST-*, deltas.log, unknown files) is out of scope.
    if (name.rfind("gen-", 0) != 0) continue;
    ++scanned;
    ++report->packs_scanned;
    if (referenced.count(name) != 0) {
      ++report->packs_referenced;
      continue;
    }
    candidates.push_back(std::move(name));
  }
  ::closedir(d);
  std::sort(candidates.begin(), candidates.end());

  for (const std::string& name : candidates) {
    std::string path = dir + "/" + name;
    auto size = FileSizeOf(path);
    uint64_t bytes = size.ok() ? size.value() : 0;
    ++candidates_counter;
    report->bytes_reclaimable += bytes;
    if (options.apply) {
      WG_RETURN_IF_ERROR(RemoveFileIfExists(path));
      ++removed;
      reclaimed += bytes;
      ++report->packs_removed;
      report->bytes_reclaimed += bytes;
    }
  }
  if (options.apply && !candidates.empty()) {
    // Make the unlinks durable before reporting them reclaimed.
    WG_RETURN_IF_ERROR(SyncDirectory(dir));
  }
  report->candidates = std::move(candidates);
  return Status::OK();
}

}  // namespace wg::version
