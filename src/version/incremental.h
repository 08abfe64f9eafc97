#ifndef WG_VERSION_INCREMENTAL_H_
#define WG_VERSION_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "snode/partition.h"
#include "snode/refinement.h"
#include "snode/snode_repr.h"
#include "version/manifest.h"
#include "version/overlay.h"

// Incremental S-Node maintenance: given a base generation and a delta
// overlay, produce the next generation's partition, mark the supernodes
// whose disk sections must be re-encoded, and assemble the generation's
// manifest -- re-encoding and writing only dirty sections, each whole, and
// sharing every clean section whole with the base generation.
//
// The partition is maintained *deterministically* (no clustered split, no
// RNG), which is what gives the byte-identity contract its meaning:
//
//   * Old elements keep their membership and their URL-sorted page order
//     verbatim. A removed page is a tombstone -- it stays in its element
//     with empty adjacency -- so the supernode-contiguous numbering of
//     every old page is unchanged across generations.
//   * New pages are grouped by domain (the paper's P0 rule), split by the
//     URL-prefix rule alone (RefineNewElement), and appended as new
//     elements in domain order. Clustered split needs global supernode
//     adjacency context, so it is deferred to the next full rebuild --
//     the classic "incremental maintenance plus periodic rebuild" split.
//
// Dirty rules (conservative -- re-encoding a section whose bytes end up
// unchanged only costs its write):
//   1. the element of any page with out-link edits, any tombstoned page,
//      and every new element;
//   2. any element with a base superedge INTO a tombstoned page's element
//      (its pages may have lost links landing on the tombstone; without a
//      resident transpose this is the cheapest sound overapproximation).
//
// Every page whose effective adjacency differs from the base is covered:
// local edits by rule 1; links lost into a tombstone by rule 2 (the base
// superedge owner(p) -> owner(t) must exist for p to have linked t), or
// by rule 1 when p and t share an element.

namespace wg::version {

struct MaintainedPartition {
  Partition partition;
  size_t num_old_elements = 0;
  std::vector<uint8_t> dirty;  // per element; 1 = re-encode its section
  // Domain of each appended element (parallel to elements past
  // num_old_elements), for the new generation's domain index.
  std::vector<std::string> new_element_domains;

  size_t dirty_count() const {
    size_t n = 0;
    for (uint8_t d : dirty) n += d;
    return n;
  }
};

// Deterministic partition maintenance as described above. Fills
// stats->refine_seconds (maintenance wall-clock) and final_elements when
// stats is non-null.
MaintainedPartition MaintainPartition(const SNodeRepr& base,
                                      const DeltaOverlay& overlay,
                                      const RefinementOptions& options,
                                      RefinementStats* stats = nullptr);

// Assembles generation `generation` from (base, overlay, maintained):
// re-encodes dirty sections through EncodeSupernodeSection over the
// overlay-merged adjacency, writes each whole into a fresh pack
// (`<dir>/gen-%06u.NNN`), and shares every clean section. Returns the new
// manifest (not yet published -- the SnapshotManager writes and points
// CURRENT at it). `num_edges` is the overlay's exact edge count;
// `log_applied` the log position this generation folds in. Fills
// stats->encode/layout/total_seconds, comparable per phase with a full
// build's numbers.
Result<Manifest> BuildIncrementalGeneration(
    SNodeRepr& base, const Manifest& base_manifest,
    const DeltaOverlay& overlay, const MaintainedPartition& maintained,
    uint64_t generation, uint64_t log_applied, uint64_t num_edges,
    const std::string& dir, const SNodeBuildOptions& options,
    RefinementStats* stats = nullptr);

}  // namespace wg::version

#endif  // WG_VERSION_INCREMENTAL_H_
