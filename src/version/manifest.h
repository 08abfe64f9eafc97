#ifndef WG_VERSION_MANIFEST_H_
#define WG_VERSION_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "snode/snode_repr.h"
#include "storage/graph_store.h"
#include "version/content_hash.h"

// A generation manifest: the complete, immutable description of one
// published snapshot generation. It names the pack files the generation
// reads (its own plus any inherited from earlier generations), maps every
// dense blob id to a (file, offset, length, content hash) location, and
// embeds the serialized resident state (permutations + supernode graph).
// Publication is LevelDB-style: write MANIFEST-%06u, then atomically point
// CURRENT at it -- a reader either sees the old complete generation or the
// new complete generation, never a mix.
//
// Blob ids stay dense and section-contiguous within each generation (the
// S-Node read path's section prefetch depends on that), while the
// *locations* they map to are free to point into older generations' pack
// files: that is how an unchanged supernode section is shared byte-for-
// byte across generations instead of being rewritten.

namespace wg::version {

struct ManifestBlob {
  uint32_t file_index = 0;  // into Manifest::files
  uint64_t offset = 0;
  uint32_t length = 0;
  uint32_t crc = 0;  // CRC32 of the blob's bytes (verify-on-read key)
  ContentHash hash;  // of the blob's bytes (the sharing key)
};

struct Manifest {
  uint64_t generation = 0;
  // Delta-log records folded into this generation; replay after a crash
  // (or an overlay for live reads) starts at this record.
  uint64_t log_applied = 0;
  // Pack file names, relative to the snapshot directory. Grows
  // append-only across generations: a child manifest keeps the parent's
  // list (so shared blobs' file_index values survive verbatim) and
  // appends its own packs.
  std::vector<std::string> files;
  // Dense blob id -> physical location + content hash.
  std::vector<ManifestBlob> blobs;
  // How the generation was assembled (observability; also what the
  // sharing tests assert on).
  uint64_t blobs_shared = 0;
  uint64_t blobs_written = 0;
  // Serialized SNodeResidentState payload (snode/snode_repr.h).
  std::string resident;

  Status WriteTo(const std::string& path) const;
  static Result<Manifest> ReadFrom(const std::string& path);

  // Opens the (read-only) store this manifest describes; `dir` is the
  // snapshot directory the file names are relative to. Only the packs
  // some blob references are opened, so a pack gc removed while this
  // manifest still lists it is never looked for; the store's file indices
  // therefore need not match `files`. `options` controls the read path
  // (mmap); max_file_size is ignored for a read-only open.
  Result<std::unique_ptr<GraphStore>> OpenStore(
      const std::string& dir, const GraphStore::Options& options) const;

  Result<SNodeResidentState> ParseResident() const;
};

// The manifest name CURRENT in snapshot directory `dir` points at. A
// directory without CURRENT is NotFound, and nothing is created in it.
Result<std::string> ReadCurrentName(const std::string& dir);

}  // namespace wg::version

#endif  // WG_VERSION_MANIFEST_H_
