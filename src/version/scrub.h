#ifndef WG_VERSION_SCRUB_H_
#define WG_VERSION_SCRUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/graph_store.h"
#include "util/status.h"

// Offline full-store verification ("wgtool scrub"). A scrub reads every
// section a store's directory names, one pread each, and checks it against
// its recorded CRC32, accumulating every finding instead of stopping at
// the first -- an operator deciding whether to restore from backup wants
// the damage report, not its first line. Scrubbing is read-only and safe
// against a store another process is serving from.

namespace wg::version {

// One damaged section.
struct ScrubError {
  uint32_t section = 0;
  uint32_t file_index = 0;
  std::string file;     // pack path (relative or absolute as opened)
  std::string message;  // the failing Status text
};

struct ScrubReport {
  uint64_t sections_checked = 0;
  uint64_t bytes_checked = 0;
  std::vector<std::string> files;  // every pack file visited
  std::vector<ScrubError> errors;

  bool clean() const { return errors.empty(); }
  // Multi-line, human-readable: the tally then one line per damaged
  // section, naming it and its pack.
  std::string ToString() const;
};

// Verifies every section of an already opened store. Only fails outright
// (non-OK return) on errors in the scrub itself; damage lands in
// report->errors.
Status ScrubStore(const GraphStore& store, ScrubReport* report);

// Scrubs a persisted S-Node store (BASE.meta + BASE.NNN packs): opens the
// meta's directory read-only and verifies every section.
Status ScrubSNodeStore(const std::string& base_path, ScrubReport* report);

// Scrubs a snapshot directory (made by `wgtool snapshot-init`): reads
// CURRENT, loads the live manifest, and verifies every section it lists
// -- including sections shared from earlier generations' packs.
Status ScrubSnapshotDir(const std::string& dir, ScrubReport* report);

}  // namespace wg::version

#endif  // WG_VERSION_SCRUB_H_
