#ifndef WG_SNODE_REFERENCE_ENCODING_H_
#define WG_SNODE_REFERENCE_ENCODING_H_

#include <cstdint>
#include <vector>

// Reference-encoding plan computation (Section 3.1 of the paper, after
// Adler & Mitzenmacher [2]): given the adjacency lists of a small graph
// (an intranode or superedge graph), build the affinity graph -- edge
// x -> y weighted by the cost in bits of encoding y's list relative to
// x's, plus a virtual root whose edge to y costs y's stand-alone encoding
// -- and extract a minimum-weight arborescence rooted at the virtual root.
// x is used as the reference for y iff x -> y is in the arborescence.
//
// Adler & Mitzenmacher's full affinity graph is quadratic; the paper makes
// it tractable by only applying the scheme to small lower-level graphs and
// by grouping similar pages first. We additionally restrict the candidates
// for list y to the `window` lists just before it in local (URL-sorted)
// order, which is where Property 1/3 of the paper puts the similar lists.
// With backward-only candidates the affinity graph is a DAG, so its
// minimum arborescence is simply each list's cheapest incoming edge, and
// the lists serialize in local order with no per-list id.
//
// Thread-safety contract: plan computation is a pure, deterministic
// function of the input lists (no globals, no RNG). The parallel encode
// phase of SNodeRepr::Build calls it from worker threads on disjoint
// graphs and depends on both properties for byte-identical output.

namespace wg {

inline constexpr int kNoReference = -1;

struct ReferencePlan {
  // reference[i] = index (< i) of the list used as reference for list i,
  // or kNoReference for stand-alone encoding.
  std::vector<int> reference;
  // Total planned cost in bits (arborescence weight). Excludes the
  // one-bit reference flag that every list carries.
  uint64_t total_cost_bits = 0;
};

// Cost in bits of encoding `list` stand-alone: gamma count, first value in
// minimal binary over [0, universe), then gamma gaps.
uint64_t StandaloneCostBits(const std::vector<uint32_t>& list,
                            uint32_t universe);

// Splits `list` against `ref` (both sorted ascending) into a copy
// bit-vector over ref (1 = that ref entry is also in list) and the
// residual entries of list that ref lacks. Encoding `list` with `ref` as
// reference costs RleBitsCost(copy bits) + StandaloneCostBits(residuals),
// plus gamma(back - 1) to name the reference `back` lists earlier.
void DiffAgainstReference(const std::vector<uint32_t>& list,
                          const std::vector<uint32_t>& ref,
                          std::vector<uint8_t>* copy_bits,
                          std::vector<uint32_t>* residuals);

// Computes the reference plan for `lists` (each sorted ascending). List i
// is encoded stand-alone or against one of the `window` lists before it,
// whichever costs least: a reference must be strictly cheaper than
// stand-alone, equal-cost candidates go to the nearest, and an empty list
// is never a reference. If `use_reference_encoding` is false (ablation),
// every list is stand-alone.
// `universe` bounds every list entry (the target element's page count).
ReferencePlan ComputeReferencePlan(
    const std::vector<std::vector<uint32_t>>& lists, uint32_t universe,
    int window, bool use_reference_encoding = true);

}  // namespace wg

#endif  // WG_SNODE_REFERENCE_ENCODING_H_
