#include "snode/supernode_graph.h"

#include <algorithm>

#include "util/coding.h"
#include "util/huffman.h"

namespace wg {

uint32_t SupernodeGraph::SupernodeOf(PageId p) const {
  // First range start > p, minus one.
  auto it = std::upper_bound(page_start.begin(), page_start.end(), p);
  WG_DCHECK(it != page_start.begin());
  return static_cast<uint32_t>((it - page_start.begin()) - 1);
}

uint64_t SupernodeGraph::HuffmanAdjacencyBits() const {
  uint32_t n = num_supernodes();
  if (n == 0) return 0;
  // In-degree frequencies over superedge targets.
  std::vector<uint64_t> freqs(n, 0);
  for (uint32_t t : targets) ++freqs[t];
  HuffmanCode code = HuffmanCode::Build(freqs);
  uint64_t bits = code.TotalCost(freqs);
  for (uint32_t s = 0; s < n; ++s) {
    bits += GammaCost(offsets[s + 1] - offsets[s]);
  }
  return bits;
}

uint64_t SupernodeGraph::HuffmanEncodedBytes() const {
  uint64_t bytes = (HuffmanAdjacencyBits() + 7) / 8;
  // 4-byte pointer per vertex (intranode graph) and per edge (superedge
  // graph), as counted in the paper's Figure 10.
  bytes += 4ull * num_supernodes() + 4ull * targets.size();
  return bytes;
}

size_t SupernodeGraph::MemoryUsage() const {
  size_t bytes =
      (offsets.size() + targets.size() + page_start.size()) * sizeof(uint32_t);
  for (const auto& [name, supernodes] : domain_supernodes) {
    bytes += name.size() + supernodes.size() * sizeof(uint32_t) + 64;
  }
  return bytes;
}

}  // namespace wg
