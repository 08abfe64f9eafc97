#ifndef WG_VERSION_GC_H_
#define WG_VERSION_GC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

// Pack-file garbage collection for the versioned snapshot store.
//
// Generations share unchanged sections by pointing into older
// generations' pack files, so a pack stays live for as long as ANY section
// of the live manifest (the one CURRENT names) lives in it. Once a
// compaction has re-encoded every section a pack held, the pack is
// garbage: still on disk, still listed in the manifest's append-only
// `files` table, but indexed by no section. CollectGarbage finds those
// packs and (in apply mode) unlinks them.
//
// Safety rules, in order of precedence:
//   * Only `gen-*` pack files are ever candidates. CURRENT, MANIFEST-*,
//     deltas.log, and anything unrecognized are never touched.
//   * A pack named by any live-manifest section's file_index is
//     referenced and never a candidate, even in apply mode.
//   * Dry-run (the default) deletes nothing; it only reports.
//
// Deleting a pack leaves its name behind in the manifest's `files` table
// (manifests are immutable); OpenStore opens only the packs some section
// lives in, so it never looks for the deleted one. The wg_version_gc_*
// counters record scanned/candidate/removed packs and reclaimed bytes.

namespace wg::version {

struct GcOptions {
  // false = dry run: report candidates, delete nothing.
  bool apply = false;
};

struct GcReport {
  uint64_t packs_scanned = 0;     // gen-* files seen in the directory
  uint64_t packs_referenced = 0;  // pinned by a live-manifest section
  uint64_t packs_removed = 0;     // actually unlinked (apply mode)
  uint64_t bytes_reclaimable = 0;  // total size of candidates
  uint64_t bytes_reclaimed = 0;    // bytes of packs actually unlinked
  std::vector<std::string> candidates;  // relative names, sorted
};

// Scans snapshot directory `dir` against the manifest CURRENT names.
// Fails without touching anything if CURRENT or the manifest is
// unreadable. Safe to run against a directory another process is
// serving from: referenced packs are never candidates, and readers of
// older generations keep their already-open file descriptors.
Status CollectGarbage(const std::string& dir, const GcOptions& options,
                      GcReport* report);

}  // namespace wg::version

#endif  // WG_VERSION_GC_H_
