// Figure 10 of the paper: size in megabytes of the Huffman-encoded
// supernode graph (including a 4-byte pointer per vertex and per edge) as
// a function of repository size. The paper's claim: the supernode graph is
// a very compact structural summary -- under 90 MB even for 115M pages
// (830 GB of HTML) -- so it can stay permanently in memory like a B-tree
// root. At 1:1000 scale the same claim reads "well under 90 KB at 115k
// pages".

#include <vector>

#include "bench/bench_common.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

void Run() {
  bench::PrintHeader(
      "Figure 10: Huffman-encoded supernode-graph size vs repository size");
  std::printf("%12s %18s %20s\n", "pages", "encoded size (KB)",
              "resident share of WG");

  std::vector<double> sizes_kb;
  uint64_t last_encoded_bits = 0;
  for (size_t n : bench::kSweepSizes) {
    WebGraph subset = bench::FullCrawl().InducedPrefix(n);
    auto repr = bench::UnwrapOrDie(SNodeRepr::Build(
        subset, bench::BenchDir() + "/fig10_" + std::to_string(n), {}));
    uint64_t bytes = repr->supernode_graph().HuffmanEncodedBytes();
    last_encoded_bits = repr->encoded_bits();
    double share =
        static_cast<double>(bytes * 8) / repr->encoded_bits();
    std::printf("%12zu %18.1f %19.1f%%\n", n, bytes / 1024.0, share * 100);
    sizes_kb.push_back(bytes / 1024.0);
  }
  (void)last_encoded_bits;

  // Shape: compact (paper: <90 MB at 115M pages -> <90 KB at 115k) and
  // growing sub-linearly.
  double growth = sizes_kb.back() / sizes_kb.front();
  double input_growth = static_cast<double>(bench::kSweepSizes[4]) /
                        bench::kSweepSizes[0];
  std::printf("growth: input %.2fx, supernode graph %.2fx\n", input_growth,
              growth);
  bench::PrintShapeCheck(
      sizes_kb.back() < 90.0 && growth < input_growth,
      "supernode graph stays a compact (<90 KB at scale), sub-linearly "
      "growing summary (Fig 10)");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
