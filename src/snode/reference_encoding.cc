#include "snode/reference_encoding.h"

#include <algorithm>

#include "util/coding.h"
#include "util/rle.h"

namespace wg {

uint64_t StandaloneCostBits(const std::vector<uint32_t>& list,
                            uint32_t universe) {
  uint64_t bits = GammaCost(list.size());
  if (list.empty()) return bits;
  bits += MinimalBinaryWidth(universe);
  for (size_t i = 1; i < list.size(); ++i) {
    bits += GammaCost(list[i] - list[i - 1] - 1);
  }
  return bits;
}

void DiffAgainstReference(const std::vector<uint32_t>& list,
                          const std::vector<uint32_t>& ref,
                          std::vector<uint8_t>* copy_bits,
                          std::vector<uint32_t>* residuals) {
  copy_bits->assign(ref.size(), 0);
  residuals->clear();
  size_t i = 0, j = 0;
  while (i < list.size() && j < ref.size()) {
    if (list[i] == ref[j]) {
      (*copy_bits)[j] = 1;
      ++i;
      ++j;
    } else if (list[i] < ref[j]) {
      residuals->push_back(list[i]);
      ++i;
    } else {
      ++j;
    }
  }
  for (; i < list.size(); ++i) residuals->push_back(list[i]);
}

ReferencePlan ComputeReferencePlan(
    const std::vector<std::vector<uint32_t>>& lists, uint32_t universe,
    int window, bool use_reference_encoding) {
  ReferencePlan plan;
  plan.reference.assign(lists.size(), kNoReference);
  // Reused across candidates: allocating them per Diff doubles encode time.
  std::vector<uint8_t> copy_bits;
  std::vector<uint32_t> residuals;
  for (size_t i = 0; i < lists.size(); ++i) {
    uint64_t best = StandaloneCostBits(lists[i], universe);
    // An empty list costs one bit stand-alone, which no reference beats.
    int candidates = use_reference_encoding && !lists[i].empty()
                         ? std::min(window, static_cast<int>(i))
                         : 0;
    for (int back = 1; back <= candidates; ++back) {
      const std::vector<uint32_t>& ref = lists[i - back];
      if (ref.empty()) continue;
      DiffAgainstReference(lists[i], ref, &copy_bits, &residuals);
      uint64_t cost = GammaCost(back - 1) + RleBitsCost(copy_bits) +
                      StandaloneCostBits(residuals, universe);
      if (cost < best) {
        best = cost;
        plan.reference[i] = static_cast<int>(i) - back;
      }
    }
    plan.total_cost_bits += best;
  }
  return plan;
}

}  // namespace wg
