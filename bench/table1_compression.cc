// Table 1 of the paper: compression statistics. Bits per edge for the
// Web graph WG and its transpose WG^T under Plain Huffman, Link3
// (Connectivity Server), and S-Node; plus the maximum repository size that
// fits in 8 GB of main memory, derived from bits/edge and the measured
// mean out-degree (the paper uses its measured value of 14).
//
// Paper's claims to reproduce in shape:
//   1. S-Node < Link3 << Plain Huffman (about 10 bits/edge of headroom).
//   2. WG compresses better than WG^T for the similarity-exploiting
//      schemes (backlink "entropy" is higher).
//   3. The WG-vs-WG^T penalty is larger for S-Node than for Link3, yet
//      S-Node still wins on WG^T.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

struct SchemeResult {
  std::string name;
  double bits_wg = 0;
  double bits_wgt = 0;
};

double AverageBits(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s / v.size();
}

void Run() {
  bench::PrintHeader("Table 1: compression statistics");
  const std::vector<size_t> sizes = {25000, 50000, 100000};

  std::vector<double> huff_wg, huff_wgt, l3_wg, l3_wgt, sn_wg, sn_wgt;
  double out_degree_sum = 0;
  for (size_t n : sizes) {
    WebGraph g = bench::FullCrawl().InducedPrefix(n);
    WebGraph t = g.Transpose();
    out_degree_sum += g.average_out_degree();
    std::string base = bench::BenchDir() + "/t1_" + std::to_string(n);

    huff_wg.push_back(HuffmanRepr::Build(g)->BitsPerEdge());
    huff_wgt.push_back(HuffmanRepr::Build(t)->BitsPerEdge());
    l3_wg.push_back(
        bench::UnwrapOrDie(Link3Repr::Build(g, base + "_l3f", {}))
            ->BitsPerEdge());
    l3_wgt.push_back(
        bench::UnwrapOrDie(Link3Repr::Build(t, base + "_l3b", {}))
            ->BitsPerEdge());
    sn_wg.push_back(
        bench::UnwrapOrDie(SNodeRepr::Build(g, base + "_snf", {}))
            ->BitsPerEdge());
    sn_wgt.push_back(
        bench::UnwrapOrDie(SNodeRepr::Build(t, base + "_snb", {}))
            ->BitsPerEdge());
  }
  double mean_out = out_degree_sum / sizes.size();

  std::vector<SchemeResult> rows = {
      {"Plain Huffman", AverageBits(huff_wg), AverageBits(huff_wgt)},
      {"Connectivity Server (Link3)", AverageBits(l3_wg),
       AverageBits(l3_wgt)},
      {"S-Node", AverageBits(sn_wg), AverageBits(sn_wgt)},
  };

  // Max repository size in 8 GB: n pages * mean_out edges * bits / 8 = 8GB.
  const double kBudgetBits = 8.0 * (1ull << 30) * 8;
  std::printf("(averaged over 25k/50k/100k data sets; mean out-degree "
              "%.1f)\n",
              mean_out);
  std::printf("%-28s %10s %10s %22s %22s\n", "Representation scheme",
              "WG b/e", "WGT b/e", "max repo in 8GB (WG)",
              "max repo in 8GB (WGT)");
  for (const auto& row : rows) {
    double max_wg = kBudgetBits / (mean_out * row.bits_wg);
    double max_wgt = kBudgetBits / (mean_out * row.bits_wgt);
    std::printf("%-28s %10.2f %10.2f %18.0f mill %18.0f mill\n",
                row.name.c_str(), row.bits_wg, row.bits_wgt, max_wg / 1e6,
                max_wgt / 1e6);
  }

  bool ordering = rows[2].bits_wg < rows[1].bits_wg &&
                  rows[1].bits_wg < rows[0].bits_wg &&
                  rows[2].bits_wgt < rows[1].bits_wgt &&
                  rows[1].bits_wgt < rows[0].bits_wgt;
  bench::PrintShapeCheck(
      ordering, "S-Node < Link3 < Plain Huffman on both WG and WG^T");

  bool transpose_worse = rows[2].bits_wgt > rows[2].bits_wg &&
                         rows[1].bits_wgt > rows[1].bits_wg;
  bench::PrintShapeCheckDocumented(
      transpose_worse,
      "WG^T compresses worse than WG for the similarity-exploiting schemes",
      "corpus-dependent: the copying-model generator produces strong "
      "co-citation, so backlink lists form dense URL-ordered runs that "
      "gap-code extremely well; see EXPERIMENTS.md, Table 1");

  double sn_penalty = rows[2].bits_wgt - rows[2].bits_wg;
  double l3_penalty = rows[1].bits_wgt - rows[1].bits_wg;
  bench::PrintShapeCheckDocumented(
      sn_penalty > l3_penalty,
      "the transpose penalty hits S-Node harder than Link3 (it exploits "
      "adjacency-list similarity more aggressively)",
      "follows the same corpus-dependent inversion as the previous check; "
      "see EXPERIMENTS.md, Table 1");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
