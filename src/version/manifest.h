#ifndef WG_VERSION_MANIFEST_H_
#define WG_VERSION_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snode/snode_repr.h"
#include "storage/graph_store.h"

// A generation manifest: the complete, immutable description of one
// published snapshot generation. It names the pack files the generation
// reads (its own plus any inherited from earlier generations), lists every
// section's location -- pack, offset, CRC and its graphs' lengths, the
// same directory a store's `.meta` holds -- and embeds the serialized
// resident state (permutation + supernode graph). Publication is
// LevelDB-style: write MANIFEST-%06u, then atomically point CURRENT at it
// -- a reader either sees the old complete generation or the new complete
// generation, never a mix.
//
// Sections stay in supernode order within each generation, so blob ids
// stay dense (SupernodeGraph::FirstBlob), while the packs they live in are
// free to be older generations': that is how an unchanged supernode
// section is shared whole across generations instead of being rewritten.

namespace wg::version {

struct Manifest {
  uint64_t generation = 0;
  // Delta-log records folded into this generation; replay after a crash
  // (or an overlay for live reads) starts at this record.
  uint64_t log_applied = 0;
  // Pack file names, relative to the snapshot directory. Grows
  // append-only across generations: a child manifest keeps the parent's
  // list (so shared sections' file_index values survive verbatim) and
  // appends its own packs.
  std::vector<std::string> files;
  // Section s's location, file_index into `files`.
  GraphStore::Directory directory;
  // How the generation was assembled (observability; also what the
  // sharing tests assert on).
  uint64_t sections_shared = 0;
  uint64_t sections_written = 0;
  // Serialized SNodeResidentState payload (snode/snode_repr.h).
  std::string resident;

  Status WriteTo(const std::string& path) const;
  static Result<Manifest> ReadFrom(const std::string& path);

  // Opens the (read-only) store this manifest describes; `dir` is the
  // snapshot directory the file names are relative to. Only the packs
  // some section references are opened, so a pack gc removed while this
  // manifest still lists it is never looked for; the store's file indices
  // therefore need not match `files`.
  Result<std::unique_ptr<GraphStore>> OpenStore(const std::string& dir) const;

  Result<SNodeResidentState> ParseResident() const;
};

// The manifest name CURRENT in snapshot directory `dir` points at. A
// directory without CURRENT is NotFound, and nothing is created in it.
Result<std::string> ReadCurrentName(const std::string& dir);

}  // namespace wg::version

#endif  // WG_VERSION_MANIFEST_H_
