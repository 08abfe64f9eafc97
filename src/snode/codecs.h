#ifndef WG_SNODE_CODECS_H_
#define WG_SNODE_CODECS_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

// Bit-level codecs for the two kinds of lower-level graphs in an S-Node
// representation (Section 2 of the paper):
//
//  * Intranode graphs: links among the pages of one partition element, in
//    local ids [0, n).
//
//  * Superedge graphs: the bipartite links from element i to element j.
//    Encoded positively (lists of present links) or negatively (lists of
//    absent links), whichever direction has fewer edges; a source absent
//    from a negative graph points to ALL of N_j (Figure 4 semantics).
//
// Both kinds write their lists in local order through one list codec.
// Each list is stand-alone or reference-encoded against one of the few
// lists just before it, as the plan in snode/reference_encoding.h says
// (the minimum arborescence of the backward-window affinity graph): RLE
// copy bit-vectors and gamma gap codes -- the "easy to decode bit level
// compression techniques" of Section 3.3. A single sequential pass
// decodes straight into the graph's CSR.
//
// Thread-safety contract: every Encode/Decode function here is a pure
// function of its arguments -- no global or function-local mutable state
// -- and is deterministic for a given input. SNodeRepr::Build relies on
// this to encode many graphs concurrently (util/parallel.h) while keeping
// the store files byte-identical to a serial build. Keep new codecs pure;
// anything cached must be per-call.

namespace wg {

// ---------- Intranode ----------

struct IntranodeGraph {
  // CSR in local ids; offsets has num_pages+1 entries.
  uint32_t num_pages = 0;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> targets;
  uint64_t num_edges() const { return targets.size(); }

  std::vector<uint32_t> ListOf(uint32_t local) const {
    return std::vector<uint32_t>(targets.begin() + offsets[local],
                                 targets.begin() + offsets[local + 1]);
  }
  size_t MemoryUsage() const {
    return offsets.size() * 4 + targets.size() * 4 + sizeof(*this);
  }
};

// Reference window of the intranode encoder: list i may reference one of
// the kIntranodeReferenceWindow lists before it (ComputeReferencePlan).
constexpr int kIntranodeReferenceWindow = 8;

struct IntranodeEncodeOptions {
  bool use_reference_encoding = true;
};

// Encodes `lists` (lists[i] = sorted local targets of local page i).
std::vector<uint8_t> EncodeIntranode(
    const std::vector<std::vector<uint32_t>>& lists,
    const IntranodeEncodeOptions& options);

// num_pages is supplied by the caller (the section's page range); a blob
// whose header disagrees is Corruption before anything is allocated. The
// span form borrows `data` only for the duration of the call (used by the
// mmap read path to decode straight out of the mapped store file).
Status DecodeIntranode(const uint8_t* data, size_t size, uint32_t num_pages,
                       IntranodeGraph* out);

inline Status DecodeIntranode(const std::vector<uint8_t>& blob,
                              uint32_t num_pages, IntranodeGraph* out) {
  return DecodeIntranode(blob.data(), blob.size(), num_pages, out);
}

// ---------- Superedge ----------

struct SuperedgeGraph {
  bool positive = true;
  uint32_t num_target_pages = 0;  // |N_j|
  // CSR over the sources *present* in the encoded graph; local source ids
  // sorted ascending.
  std::vector<uint32_t> sources;
  std::vector<uint32_t> offsets;  // sources.size()+1
  std::vector<uint32_t> targets;  // local ids in N_j

  // Appends the actual (positive) targets of local source `src` to *out.
  // For a negative graph this complements against [0, num_target_pages).
  void LinksOf(uint32_t src, std::vector<uint32_t>* out) const;

  // Number of actual links represented.
  uint64_t NumPositiveEdges(uint32_t num_source_pages) const;

  size_t MemoryUsage() const {
    return (sources.size() + offsets.size() + targets.size()) * 4 +
           sizeof(*this);
  }
};

// Reference window of the superedge encoder, over its present sources.
constexpr int kSuperedgeReferenceWindow = 4;

struct SuperedgeEncodeOptions {
  bool use_reference_encoding = true;
  // Ablation: never use negative polarity.
  bool allow_negative = true;
};

// Encodes the bipartite link set: lists[k] = sorted local targets (in N_j)
// of present source sources[k]; sources sorted ascending; every list
// non-empty. num_source_pages = |N_i|, num_target_pages = |N_j|.
std::vector<uint8_t> EncodeSuperedge(
    const std::vector<uint32_t>& sources,
    const std::vector<std::vector<uint32_t>>& lists,
    uint32_t num_source_pages, uint32_t num_target_pages,
    const SuperedgeEncodeOptions& options);

// ni/nj are supplied by the caller (the resident supernode graph), not
// stored in the blob. The span form borrows `data` only for the call.
Status DecodeSuperedge(const uint8_t* data, size_t size,
                       uint32_t num_source_pages, uint32_t num_target_pages,
                       SuperedgeGraph* out);

inline Status DecodeSuperedge(const std::vector<uint8_t>& blob,
                              uint32_t num_source_pages,
                              uint32_t num_target_pages, SuperedgeGraph* out) {
  return DecodeSuperedge(blob.data(), blob.size(), num_source_pages,
                         num_target_pages, out);
}

}  // namespace wg

#endif  // WG_SNODE_CODECS_H_
