#ifndef WG_SNODE_SECTION_ENCODE_H_
#define WG_SNODE_SECTION_ENCODE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/webgraph.h"
#include "snode/codecs.h"
#include "snode/partition.h"
#include "util/status.h"

// The encode entry point for one supernode's disk section, shared by the
// full build (SNodeRepr::Build) and the incremental maintenance path
// (src/version): given a partition element and an adjacency source, it
// produces the intranode blob plus the outgoing superedge blobs in target
// order -- exactly the bytes the paper's linear disk layout (Figure 8)
// appends for that supernode. Because full and incremental builds funnel
// through this one function (and the codecs are pure/deterministic, see
// snode/codecs.h), a generation built incrementally from deltas is
// byte-identical per section to a from-scratch rebuild over the same
// partition.

namespace wg {

// One supernode's encoded section: the intranode graph followed by the
// outgoing superedge graphs sorted by target element id -- the graphs in
// the order GraphStore::AppendSection lays them out.
struct EncodedSection {
  // graphs[0] is the intranode graph; graphs[1 + k] the superedge graph
  // into targets[k].
  std::vector<std::vector<uint8_t>> graphs;
  std::vector<uint32_t> targets;  // ascending element ids

  size_t total_bytes() const {
    size_t n = 0;
    for (const auto& graph : graphs) n += graph.size();
    return n;
  }
};

// The paper's numbering rule over `partition` (num_pages pages): elements
// in order, each element's pages in its own (URL-sorted) order, so every
// supernode owns a contiguous new-id range. Fills *new_of_orig (size
// num_pages) and *page_start (each element's first new id, size
// num_elements + 1). The full and the incremental build both number
// through this.
void NumberPages(const Partition& partition, size_t num_pages,
                 std::vector<PageId>* new_of_orig,
                 std::vector<PageId>* page_start);

// Appends the sorted, deduplicated out-links of `p` (original page ids) to
// *out. The full build wraps WebGraph::OutLinks; the incremental path
// wraps an overlay cursor over the previous generation plus deltas.
using SectionLinksFn =
    std::function<Status(PageId p, std::vector<PageId>* out)>;

// Encodes element `supernode` of a partition. `element` lists its pages in
// URL-sorted order (local id = position). `owner` maps every page to its
// element, `new_of_orig` to its id under the supernode-contiguous
// numbering rule, and `page_start` gives each element's first new id
// (size num_elements + 1), so target-local ids and target universes come
// from the same partition the caller is building. Pure apart from
// `links_of`; safe to call from many threads on disjoint supernodes.
Status EncodeSupernodeSection(uint32_t supernode,
                              const std::vector<PageId>& element,
                              const SectionLinksFn& links_of,
                              const std::vector<uint32_t>& owner,
                              const std::vector<PageId>& new_of_orig,
                              const std::vector<PageId>& page_start,
                              const IntranodeEncodeOptions& intranode_options,
                              const SuperedgeEncodeOptions& superedge_options,
                              EncodedSection* out);

}  // namespace wg

#endif  // WG_SNODE_SECTION_ENCODE_H_
