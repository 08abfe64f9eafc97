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
//
// Beside bits/edge it prints each scheme's resident index bytes per page
// on WG (resident_memory() with buffers cleared, so no cache or buffer
// pool contents are counted): the in-memory price of the encoding, which
// Table 1's "max repo in 8 GB" leaves out.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "repr/relational_repr.h"
#include "repr/uncompressed_repr.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

// One scheme's figures, one entry per data set.
struct SchemeResult {
  std::string name;
  std::vector<double> bits_wg, bits_wgt, resident_wg;
};

double Average(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s / v.size();
}

double ResidentBytesPerPage(GraphRepresentation* repr) {
  repr->ClearBuffers();
  return static_cast<double>(repr->resident_memory()) /
         static_cast<double>(repr->num_pages());
}

void Run() {
  bench::PrintHeader("Table 1: compression statistics");
  const std::vector<size_t> sizes = {25000, 50000, 100000};

  // Plain Huffman, Link3 and S-Node first: the shape checks index them.
  std::vector<SchemeResult> rows(5);
  rows[0].name = "Plain Huffman";
  rows[1].name = "Connectivity Server (Link3)";
  rows[2].name = "S-Node";
  rows[3].name = "Uncompressed files";
  rows[4].name = "Relational";
  double out_degree_sum = 0;
  for (size_t n : sizes) {
    WebGraph g = bench::FullCrawl().InducedPrefix(n);
    WebGraph t = g.Transpose();
    out_degree_sum += g.average_out_degree();
    std::string base = bench::BenchDir() + "/t1_" + std::to_string(n);
    for (size_t scheme = 0; scheme < rows.size(); ++scheme) {
      for (const WebGraph* graph : {&g, &t}) {
        const std::string path =
            base + "_" + std::to_string(scheme) + (graph == &g ? "f" : "b");
        std::unique_ptr<GraphRepresentation> repr;
        switch (scheme) {
          case 0:
            repr = HuffmanRepr::Build(*graph);
            break;
          case 1:
            repr = bench::UnwrapOrDie(Link3Repr::Build(*graph, path, {}));
            break;
          case 2:
            repr = bench::UnwrapOrDie(SNodeRepr::Build(*graph, path, {}));
            break;
          case 3:
            repr = bench::UnwrapOrDie(
                UncompressedFileRepr::Build(*graph, path, {}));
            break;
          default:
            repr = bench::UnwrapOrDie(RelationalRepr::Build(*graph, path, {}));
            break;
        }
        if (graph == &g) {
          rows[scheme].bits_wg.push_back(repr->BitsPerEdge());
          rows[scheme].resident_wg.push_back(ResidentBytesPerPage(repr.get()));
        } else {
          rows[scheme].bits_wgt.push_back(repr->BitsPerEdge());
        }
      }
    }
  }
  double mean_out = out_degree_sum / sizes.size();

  // Max repository size in 8 GB: n pages * mean_out edges * bits / 8 = 8GB.
  const double kBudgetBits = 8.0 * (1ull << 30) * 8;
  std::printf("(averaged over 25k/50k/100k data sets; mean out-degree "
              "%.1f; resident index with buffers cleared)\n",
              mean_out);
  std::printf("%-28s %10s %10s %22s %22s %16s\n", "Representation scheme",
              "WG b/e", "WGT b/e", "max repo in 8GB (WG)",
              "max repo in 8GB (WGT)", "resident B/page");
  for (const auto& row : rows) {
    double max_wg = kBudgetBits / (mean_out * Average(row.bits_wg));
    double max_wgt = kBudgetBits / (mean_out * Average(row.bits_wgt));
    std::printf("%-28s %10.2f %10.2f %18.0f mill %18.0f mill %16.2f\n",
                row.name.c_str(), Average(row.bits_wg),
                Average(row.bits_wgt), max_wg / 1e6, max_wgt / 1e6,
                Average(row.resident_wg));
  }

  const double huff_wg = Average(rows[0].bits_wg);
  const double huff_wgt = Average(rows[0].bits_wgt);
  const double l3_wg = Average(rows[1].bits_wg);
  const double l3_wgt = Average(rows[1].bits_wgt);
  const double sn_wg = Average(rows[2].bits_wg);
  const double sn_wgt = Average(rows[2].bits_wgt);
  bool ordering = sn_wg < l3_wg && l3_wg < huff_wg && sn_wgt < l3_wgt &&
                  l3_wgt < huff_wgt;
  bench::PrintShapeCheck(
      ordering, "S-Node < Link3 < Plain Huffman on both WG and WG^T");

  bool transpose_worse = sn_wgt > sn_wg && l3_wgt > l3_wg;
  bench::PrintShapeCheckDocumented(
      transpose_worse,
      "WG^T compresses worse than WG for the similarity-exploiting schemes",
      "corpus-dependent: the copying-model generator produces strong "
      "co-citation, so backlink lists form dense URL-ordered runs that "
      "gap-code extremely well; see EXPERIMENTS.md, Table 1");

  double sn_penalty = sn_wgt - sn_wg;
  double l3_penalty = l3_wgt - l3_wg;
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
