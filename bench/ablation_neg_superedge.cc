// Ablation B (design choice, paper Section 2): the choice between positive
// and negative superedge graphs. The paper stores whichever polarity has
// fewer edges so that both sparse and dense inter-connections encode
// compactly. This bench disables negative superedge graphs and measures
// how much of the store they save, and reports how often each polarity is
// chosen.

#include "bench/bench_common.h"
#include "snode/codecs.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

constexpr size_t kPages = 50000;

void Run() {
  bench::PrintHeader(
      "Ablation B: negative superedge graphs on/off (Section 2)");
  WebGraph graph = bench::FullCrawl().InducedPrefix(kPages);

  SNodeBuildOptions with_neg;
  SNodeBuildOptions pos_only;
  with_neg.threads = 0;  // build with all cores; output is invariant
  pos_only.threads = 0;
  pos_only.superedge.allow_negative = false;

  auto a = bench::UnwrapOrDie(
      SNodeRepr::Build(graph, bench::BenchDir() + "/abl_neg_a", with_neg));
  auto b = bench::UnwrapOrDie(
      SNodeRepr::Build(graph, bench::BenchDir() + "/abl_neg_b", pos_only));

  // Count chosen polarities in the full representation.
  size_t negative_chosen = 0;
  const SupernodeGraph& sg = a->supernode_graph();
  std::vector<uint8_t> scratch;
  std::vector<GraphStore::GraphSpan> graphs;
  for (uint32_t s = 0; s < sg.num_supernodes(); ++s) {
    bench::CheckOk(a->store().ReadSection(s, &scratch, &graphs));
    for (uint32_t e = sg.offsets[s]; e < sg.offsets[s + 1]; ++e) {
      const GraphStore::GraphSpan& blob = graphs[1 + (e - sg.offsets[s])];
      SuperedgeGraph decoded;
      bench::CheckOk(DecodeSuperedge(blob.data, blob.length, sg.pages_in(s),
                                     sg.pages_in(sg.targets[e]), &decoded));
      if (!decoded.positive) ++negative_chosen;
    }
  }

  std::printf("%-24s %16s %12s\n", "configuration", "store bytes",
              "bits/edge");
  std::printf("%-24s %16llu %12.2f\n", "pos+neg (paper)",
              static_cast<unsigned long long>(a->store().total_bytes()),
              a->BitsPerEdge());
  std::printf("%-24s %16llu %12.2f\n", "positive only",
              static_cast<unsigned long long>(b->store().total_bytes()),
              b->BitsPerEdge());
  std::printf("negative polarity chosen for %zu of %llu superedge graphs\n",
              negative_chosen,
              static_cast<unsigned long long>(sg.num_superedges()));

  bench::PrintShapeCheck(
      a->store().total_bytes() <= b->store().total_bytes(),
      "allowing negative superedge graphs never hurts and compacts dense "
      "inter-connections");

  // The synthetic crawl's inter-element connections are sparse, so the
  // polarity choice rarely triggers there. Exercise the mechanism on the
  // paper's own motivating structure (Figure 3): two directories where
  // every page of one links to every page of the other.
  GraphBuilder builder;
  uint32_t host_a = builder.AddHost("www.dense-a.com", "dense-a.com");
  uint32_t host_b = builder.AddHost("www.dense-b.com", "dense-b.com");
  constexpr int kCommunity = 400;
  for (int i = 0; i < kCommunity; ++i) {
    builder.AddPage("http://www.dense-a.com/p" + std::to_string(i), host_a);
  }
  for (int i = 0; i < kCommunity; ++i) {
    builder.AddPage("http://www.dense-b.com/p" + std::to_string(i), host_b);
  }
  for (int i = 0; i < kCommunity; ++i) {
    for (int j = 0; j < kCommunity; ++j) {
      // Nearly complete bipartite: drop a sparse diagonal band.
      if ((i + j) % 97 != 0) {
        builder.AddLink(i, kCommunity + j);
      }
    }
  }
  WebGraph dense = builder.Build();
  auto dense_neg = bench::UnwrapOrDie(SNodeRepr::Build(
      dense, bench::BenchDir() + "/abl_neg_dense_a", with_neg));
  auto dense_pos = bench::UnwrapOrDie(SNodeRepr::Build(
      dense, bench::BenchDir() + "/abl_neg_dense_b", pos_only));
  std::printf("dense bipartite community (%d x %d, ~99%% full):\n",
              kCommunity, kCommunity);
  std::printf("%-24s %16llu %12.4f\n", "pos+neg (paper)",
              static_cast<unsigned long long>(dense_neg->store().total_bytes()),
              dense_neg->BitsPerEdge());
  std::printf("%-24s %16llu %12.4f\n", "positive only",
              static_cast<unsigned long long>(dense_pos->store().total_bytes()),
              dense_pos->BitsPerEdge());
  // Reference encoding already squeezes near-complete positive lists
  // (all-ones copy vectors RLE to a few bits), so the residual win of the
  // negative polarity is bounded; it must still be clearly ahead.
  bench::PrintShapeCheck(
      dense_neg->store().total_bytes() * 14 <
          dense_pos->store().total_bytes() * 10,
      "on dense inter-connections (the paper's Figure 3 case) negative "
      "superedge graphs win clearly");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
