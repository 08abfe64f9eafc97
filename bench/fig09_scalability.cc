// Figure 9 of the paper: growth of the supernode graph with repository
// size. 9(a) plots the number of supernodes, 9(b) the number of
// superedges, for crawl prefixes of 25/50/75/100/115 (million in the
// paper; thousand here at 1:1000 scale). The paper's claim: growth is
// sub-linear -- a 20-fold increase in input pages yields < 3-fold growth
// of the supernode graph, because refinement keeps grouping similar pages
// together.

#include <vector>

#include "bench/bench_common.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

void Run() {
  bench::PrintHeader("Figure 9: supernode-graph growth vs repository size");
  std::printf("%12s %14s %14s %16s %12s\n", "pages", "supernodes",
              "superedges", "pages/supernode", "build(s)");

  std::vector<double> sizes, supernodes, superedges;
  for (size_t n : bench::kSweepSizes) {
    WebGraph subset = bench::FullCrawl().InducedPrefix(n);
    bench::Timer timer;
    SNodeBuildOptions opts;
    auto repr = bench::UnwrapOrDie(SNodeRepr::Build(
        subset, bench::BenchDir() + "/fig09_" + std::to_string(n), opts));
    double seconds = timer.Seconds();
    const SupernodeGraph& sg = repr->supernode_graph();
    std::printf("%12zu %14u %14llu %16.1f %12.2f\n", n, sg.num_supernodes(),
                static_cast<unsigned long long>(sg.num_superedges()),
                static_cast<double>(n) / sg.num_supernodes(), seconds);
    sizes.push_back(static_cast<double>(n));
    supernodes.push_back(sg.num_supernodes());
    superedges.push_back(static_cast<double>(sg.num_superedges()));
  }

  // Sub-linearity: input grew 115/25 = 4.6x; the supernode graph must grow
  // by a smaller factor (the paper reports 20x pages -> <3x supernodes).
  double input_growth = sizes.back() / sizes.front();
  double node_growth = supernodes.back() / supernodes.front();
  double edge_growth = superedges.back() / superedges.front();
  std::printf("growth: input %.2fx, supernodes %.2fx, superedges %.2fx\n",
              input_growth, node_growth, edge_growth);
  bench::PrintShapeCheck(
      node_growth < input_growth && edge_growth < input_growth,
      "supernode-graph growth is sub-linear in repository size (Fig 9)");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
