#ifndef WG_SNODE_REFINEMENT_H_
#define WG_SNODE_REFINEMENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/webgraph.h"
#include "obs/metrics.h"
#include "snode/partition.h"

// Iterative partition refinement (Section 3.2 of the paper):
//
//   P0 groups pages by domain (top two DNS levels). Each iteration picks
//   an element (random by default -- the paper found random vs largest
//   "almost identical"; both are implemented for the ablation) and splits
//   it:
//     * URL split while the element's defining URL prefix is shallower
//       than 3 path levels: group by one-level-longer prefix;
//     * clustered split afterwards: k-means over per-page bit vectors of
//       supernode out-adjacency, k starting at the element's supernode
//       out-degree, k += 2 after each non-converging attempt, aborting
//       after a fixed number of attempts.
//   Refinement stops when clustered split has aborted for `abort_max`
//   consecutive iterations, with abort_max a fixed fraction (paper: 6%)
//   of the element count.
//
// Scheduling: refinement proceeds in passes. Each pass snapshots the
// current candidate set, evaluates every candidate's split independently
// (in parallel when options.threads > 1 -- splits only read the pass-start
// partition, and each candidate draws from its own (pass, element) RNG
// stream), then installs the results one candidate at a time in a
// deterministic merge order. The abort counter, stats, and the partition
// itself therefore evolve identically for every thread count; `threads`
// changes wall-clock time only. split_largest_first orders a pass's merge
// by element size (descending) instead of element id -- the paper found
// the two policies "almost identical", and both remain available for the
// ablation.

namespace wg {

struct RefinementOptions {
  // Elements smaller than this are never split (they also can't abort the
  // stopping criterion; the paper's criterion concerns splittable work).
  // The default keeps pages-per-supernode in the few-hundreds band the
  // paper reports (~130k supernodes for 50M pages); a too-fine partition
  // drowns the representation in superedge-graph and supernode-pointer
  // overhead.
  size_t min_split_size = 768;

  // Split groups smaller than this are coalesced into a residual group, so
  // URL split on a directory-riddled host cannot shatter an element into
  // singletons.
  size_t min_group_size = 192;

  // URL-split depth: path levels beyond the host (paper: 3).
  int url_split_max_levels = 3;

  // Stopping criterion: consecutive aborted clustered splits as a fraction
  // of the current element count (paper: 6%).
  double abort_max_fraction = 0.06;

  // Ablations.
  bool use_clustered_split = true;   // false: URL split only
  bool split_largest_first = false;  // paper's alternative policy

  // Worker threads for evaluating a pass's candidate splits. <= 1 runs
  // serially; the output is identical either way (see the scheduling note
  // above). SNodeRepr::Build overwrites this with its own resolved
  // `threads` option.
  int threads = 1;
};

struct RefinementStats {
  size_t iterations = 0;
  size_t url_splits = 0;
  size_t clustered_splits = 0;
  size_t clustered_aborts = 0;
  size_t final_elements = 0;
  size_t passes = 0;

  // Per-phase wall-clock of the S-Node build. RefinePartition fills
  // refine_seconds; SNodeRepr::Build fills encode_seconds (parallel graph
  // compression) and layout_seconds (ordered store writes), plus
  // total_seconds for the whole build (refine + numbering + encode +
  // layout + domain index). The incremental maintenance path fills the
  // same fields for a partial rebuild, so full-vs-incremental savings are
  // directly comparable per phase. Timings are the only fields that vary
  // across runs/thread counts.
  double refine_seconds = 0;
  double encode_seconds = 0;
  double layout_seconds = 0;
  double total_seconds = 0;

  std::string ToString() const;

  // Publishes the final numbers into `registry` under the given labels:
  // counts as wg_build_*_total counters, per-phase wall-clock as
  // wg_build_*_seconds gauges. One build = one label set (callers pass a
  // unique {"build",N}), so successive builds in one process stay
  // distinguishable in the exposition output.
  void PublishTo(obs::MetricRegistry& registry,
                 const obs::Labels& labels) const;
};

// A borrowed view of one element's page data for a single split
// evaluation: URLs always, out-links only when the caller asked for them
// (clustered split needs links, URL split does not). Two modes: bound to
// a resident WebGraph (zero-copy, the classic build) or loaded with
// materialized per-page copies fetched from spill files (the streaming
// build). Splits see identical values either way, which is what keeps
// the two builds byte-identical.
class ElementData {
 public:
  void BindGraph(const WebGraph* graph) { graph_ = graph; }

  // Loaded mode. `pages_by_id` must be sorted ascending; `urls` and
  // `links` are parallel to it (`links` may be empty when the borrow did
  // not request link data).
  void Load(std::vector<PageId> pages_by_id, std::vector<std::string> urls,
            std::vector<std::vector<PageId>> links);

  const std::string& url(PageId p) const;
  // Out-links of `p`, sorted ascending (the WebGraph::OutLinks contract).
  std::span<const PageId> links(PageId p) const;

 private:
  size_t IndexOf(PageId p) const;

  const WebGraph* graph_ = nullptr;
  std::vector<PageId> pages_;
  std::vector<std::string> urls_;
  std::vector<std::vector<PageId>> links_;
};

// The data plane refinement runs against: the classic build binds a
// resident WebGraph, the streaming build serves borrows from spill
// files. Borrow must be safe to call from several threads at once (a
// pass evaluates its candidates in parallel).
class RefinementGraph {
 public:
  virtual ~RefinementGraph() = default;

  virtual size_t num_pages() const = 0;

  // The initial by-domain partition P0, elements URL-sorted internally
  // and emitted in domain-id order.
  virtual Result<Partition> InitialPartition() const = 0;

  // Loans the given pages' URLs (and links when `need_links`) into *out.
  virtual Status Borrow(const std::vector<PageId>& pages, bool need_links,
                        ElementData* out) const = 0;
};

// Runs refinement to completion and returns the final partition. Elements
// come out sorted by URL internally.
Partition RefinePartition(const WebGraph& graph,
                          const RefinementOptions& options,
                          RefinementStats* stats = nullptr);

// Same algorithm against an abstract data plane. For a source bound to a
// WebGraph this is exactly RefinePartition (same splits, same element
// ids, same stats); errors are only ever surfaced by sources that do
// real I/O. The first borrow/read error, in deterministic merge order,
// aborts the run.
Result<Partition> RefinePartitionFrom(const RefinementGraph& source,
                                      const RefinementOptions& options,
                                      RefinementStats* stats = nullptr);

// The initial by-domain partition P0 (exposed for tests/ablations).
Partition InitialDomainPartition(const WebGraph& graph);

// Partial-refinement entry point for incremental S-Node maintenance:
// refines one page group that arrived via crawl deltas (the pages of a new
// supernode-to-be) using the URL-split rule alone, with the same
// min_split_size / min_group_size / url_split_max_levels thresholds as
// full refinement. Clustered split is deliberately absent -- it clusters
// over supernode out-adjacency bit vectors, global context that only a
// full rebuild recomputes. `url_of` supplies page URLs (delta pages live
// outside the base WebGraph). Deterministic: output groups are URL-sorted
// internally and emitted in URL order, so an incremental build and a
// from-scratch rebuild over the same maintained partition agree exactly.
std::vector<std::vector<PageId>> RefineNewElement(
    std::vector<PageId> pages,
    const std::function<const std::string&(PageId)>& url_of,
    const RefinementOptions& options);

}  // namespace wg

#endif  // WG_SNODE_REFINEMENT_H_
