#include "snode/section_encode.h"

#include <algorithm>
#include <map>
#include <utility>

namespace wg {

void NumberPages(const Partition& partition, size_t num_pages,
                 std::vector<PageId>* new_of_orig,
                 std::vector<PageId>* page_start) {
  new_of_orig->resize(num_pages);
  page_start->clear();
  page_start->reserve(partition.num_elements() + 1);
  PageId next_id = 0;
  for (const auto& element : partition.elements) {
    page_start->push_back(next_id);
    for (PageId orig : element) (*new_of_orig)[orig] = next_id++;
  }
  page_start->push_back(next_id);
}

Status EncodeSupernodeSection(uint32_t supernode,
                              const std::vector<PageId>& element,
                              const SectionLinksFn& links_of,
                              const std::vector<uint32_t>& owner,
                              const std::vector<PageId>& new_of_orig,
                              const std::vector<PageId>& page_start,
                              const IntranodeEncodeOptions& intranode_options,
                              const SuperedgeEncodeOptions& superedge_options,
                              EncodedSection* out) {
  uint32_t n_local = static_cast<uint32_t>(element.size());

  // Split adjacency into intranode lists + per-target-supernode bipartite
  // lists, all in local ids. std::map keeps targets ascending, the order
  // the layout phase (and the paper's Figure 8) requires.
  std::vector<std::vector<uint32_t>> intra(n_local);
  std::map<uint32_t,
           std::pair<std::vector<uint32_t>, std::vector<std::vector<uint32_t>>>>
      cross;  // j -> (sources, lists)
  std::vector<PageId> links;
  for (uint32_t local = 0; local < n_local; ++local) {
    links.clear();
    WG_RETURN_IF_ERROR(links_of(element[local], &links));
    for (PageId q : links) {
      uint32_t j = owner[q];
      uint32_t q_local = new_of_orig[q] - page_start[j];
      if (j == supernode) {
        intra[local].push_back(q_local);
      } else {
        auto& slot = cross[j];
        if (slot.first.empty() || slot.first.back() != local) {
          slot.first.push_back(local);
          slot.second.emplace_back();
        }
        slot.second.back().push_back(q_local);
      }
    }
  }
  for (auto& list : intra) std::sort(list.begin(), list.end());

  out->graphs.clear();
  out->targets.clear();
  out->graphs.reserve(1 + cross.size());
  out->targets.reserve(cross.size());
  out->graphs.push_back(EncodeIntranode(intra, intranode_options));
  for (auto& [j, slot] : cross) {
    for (auto& list : slot.second) std::sort(list.begin(), list.end());
    out->targets.push_back(j);
    out->graphs.push_back(
        EncodeSuperedge(slot.first, slot.second, n_local,
                        page_start[j + 1] - page_start[j], superedge_options));
  }
  return Status::OK();
}

}  // namespace wg
