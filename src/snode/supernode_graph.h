#ifndef WG_SNODE_SUPERNODE_GRAPH_H_
#define WG_SNODE_SUPERNODE_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/webgraph.h"

// The top level of an S-Node representation (Section 2, Figure 4): one
// vertex per partition element ("supernode"), a directed superedge i -> j
// iff some page in N_i links into N_j, a pointer from each supernode to
// its intranode graph and from each superedge to its positive or negative
// superedge graph, plus the two resident indexes of Figure 7. The pointers
// are not stored here: the disk layout (Section 3.3, Figure 8) puts
// sections in supernode order, each intranode graph right before its
// outgoing superedge graphs, so FirstBlob derives which store graph a
// pointer names, and the store directory's 4-byte length per graph where
// its bytes lie within the section.
//
//  * PageID index -- supernodes own contiguous page-id ranges (the paper's
//    numbering rule), so it is an array of range starts;
//  * domain index -- domain name -> supernodes holding that domain's pages
//    (every element of the refined partition stays within one domain).
//
// The paper keeps this whole structure permanently in memory, "akin to the
// root node of B-tree indexes".

namespace wg {

class SupernodeGraph {
 public:
  // CSR, filled by the S-Node builder.
  std::vector<uint32_t> offsets;   // num_supernodes + 1
  std::vector<uint32_t> targets;   // superedge target supernode
  std::vector<PageId> page_start;  // num_supernodes + 1 (range index)
  std::unordered_map<std::string, std::vector<uint32_t>> domain_supernodes;

  uint32_t num_supernodes() const {
    return offsets.empty() ? 0 : static_cast<uint32_t>(offsets.size() - 1);
  }
  uint64_t num_superedges() const { return targets.size(); }

  // Graph-store id of supernode s's intranode graph. Section s is blobs
  // [FirstBlob(s), FirstBlob(s + 1)): the intranode graph, then one
  // superedge graph per outgoing superedge in target order, so superedge
  // e of s is blob FirstBlob(s) + 1 + (e - offsets[s]). The only code
  // that knows the layout rule; every store that any build writes follows
  // it, so a store holds FirstBlob(num_supernodes()) blobs.
  uint32_t FirstBlob(uint32_t s) const { return s + offsets[s]; }

  uint32_t pages_in(uint32_t s) const {
    return page_start[s + 1] - page_start[s];
  }

  // Supernode owning page `p` (new-id space): binary search over ranges.
  uint32_t SupernodeOf(PageId p) const;

  std::pair<const uint32_t*, const uint32_t*> OutEdges(uint32_t s) const {
    return {targets.data() + offsets[s], targets.data() + offsets[s + 1]};
  }

  // Size in bytes of the Huffman-coded supernode graph, counting the
  // 4-byte pointer per vertex and per edge exactly as the paper's
  // Figure 10 does: superedge targets are Huffman-coded by in-degree, each
  // adjacency list carries a gamma-coded length.
  uint64_t HuffmanEncodedBytes() const;

  // The Huffman-coded adjacency alone (no pointers): the part of the top
  // level that encodes linkage information, counted into bits/edge. The
  // paper's pointers are directory state into the graph store, i.e. a
  // resident index like Link3's block directory, and are reported via
  // HuffmanEncodedBytes instead.
  uint64_t HuffmanAdjacencyBits() const;

  // Actual resident footprint of this in-memory structure.
  size_t MemoryUsage() const;
};

}  // namespace wg

#endif  // WG_SNODE_SUPERNODE_GRAPH_H_
