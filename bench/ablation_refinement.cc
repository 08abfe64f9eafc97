// Ablation C (design choices, paper Sections 3.1/3.2): what each
// ingredient of the S-Node construction contributes to compression.
// Compares, at fixed workload:
//   * the full pipeline (URL split + clustered split + reference encoding)
//   * URL split only (no k-means clustered split)
//   * full refinement but reference encoding disabled
//   * neither clustered split nor reference encoding
// The paper's design rationale predicts reference encoding is the main
// compression lever (Property 1 feeds it), with clustered split refining
// what URL locality misses.

#include <string>

#include "bench/bench_common.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

constexpr size_t kPages = 50000;

struct Row {
  std::string name;
  double bits_per_edge;
  uint32_t supernodes;
};

Row Build(const WebGraph& graph, const std::string& tag, bool clustered,
          bool reference) {
  SNodeBuildOptions opts;
  opts.threads = 0;  // build with all cores; output is thread-count invariant
  opts.refinement.use_clustered_split = clustered;
  // Finer floors than the production default so the clustered-split phase
  // actually engages at this scale (with the default floors URL split
  // already reaches the minimum element size).
  opts.refinement.min_split_size = 128;
  opts.refinement.min_group_size = 32;
  opts.intranode.use_reference_encoding = reference;
  opts.superedge.use_reference_encoding = reference;
  auto repr = bench::UnwrapOrDie(
      SNodeRepr::Build(graph, bench::BenchDir() + "/abl_ref_" + tag, opts));
  return {tag, repr->BitsPerEdge(),
          repr->supernode_graph().num_supernodes()};
}

void Run() {
  bench::PrintHeader(
      "Ablation C: clustered split and reference encoding contributions");
  WebGraph graph = bench::FullCrawl().InducedPrefix(kPages);

  Row full = Build(graph, "full", true, true);
  Row url_only = Build(graph, "url-split-only", false, true);
  Row no_ref = Build(graph, "no-ref-encoding", true, false);
  Row neither = Build(graph, "neither", false, false);

  std::printf("%-18s %12s %12s\n", "configuration", "bits/edge",
              "supernodes");
  for (const Row& row : {full, url_only, no_ref, neither}) {
    std::printf("%-18s %12.2f %12u\n", row.name.c_str(), row.bits_per_edge,
                row.supernodes);
  }

  bench::PrintShapeCheck(
      full.bits_per_edge < no_ref.bits_per_edge &&
          url_only.bits_per_edge < neither.bits_per_edge,
      "reference encoding is a significant compression lever (Section "
      "3.1)");
  bench::PrintShapeCheck(
      full.bits_per_edge <= url_only.bits_per_edge * 1.05,
      "clustered split does not hurt compression on top of URL split "
      "(Section 3.2)");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
