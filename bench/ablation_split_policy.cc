// Ablation A (design choice, paper Section 3.2): the element-selection
// policy during iterative refinement. The paper compared always splitting
// the largest element against picking one at random and found "the size
// and query performance of the S-Node representation produced by either
// policy was almost identical", settling on random. This bench reproduces
// that comparison on size and on Query 1 navigation time.

#include "bench/bench_common.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

constexpr size_t kPages = 50000;

struct Outcome {
  uint32_t supernodes;
  uint64_t superedges;
  double bits_per_edge;
  double q1_seconds;
};

Outcome RunPolicy(bool largest_first, const WebGraph& graph,
                  const WebGraph& transpose, const Corpus& corpus,
                  const InvertedIndex& index,
                  const std::vector<double>& pagerank) {
  SNodeBuildOptions opts;
  opts.threads = 0;  // build with all cores; output is thread-count invariant
  opts.refinement.split_largest_first = largest_first;
  std::string tag = largest_first ? "largest" : "random";
  auto fwd = bench::UnwrapOrDie(SNodeRepr::Build(
      graph, bench::BenchDir() + "/abl_sp_f_" + tag, opts));
  auto bwd = bench::UnwrapOrDie(SNodeRepr::Build(
      transpose, bench::BenchDir() + "/abl_sp_b_" + tag, opts));
  QueryContext ctx;
  ctx.forward = fwd.get();
  ctx.backward = bwd.get();
  ctx.graph = &graph;
  ctx.corpus = &corpus;
  ctx.index = &index;
  ctx.pagerank = &pagerank;
  fwd->ClearBuffers();
  fwd->stats().Reset();
  auto result = bench::UnwrapOrDie(RunQuery1(ctx));
  Outcome out;
  out.supernodes = fwd->supernode_graph().num_supernodes();
  out.superedges = fwd->supernode_graph().num_superedges();
  out.bits_per_edge = fwd->BitsPerEdge();
  out.q1_seconds =
      bench::ModeledSeconds(result.navigation_seconds, fwd->stats());
  return out;
}

void Run() {
  bench::PrintHeader(
      "Ablation A: refinement split policy (random vs largest-first)");
  WebGraph graph = bench::FullCrawl().InducedPrefix(kPages);
  WebGraph transpose = graph.Transpose();
  Corpus corpus = Corpus::Generate(graph, CorpusOptions());
  InvertedIndex index = InvertedIndex::Build(corpus);
  std::vector<double> pagerank = ComputePageRank(graph);

  Outcome random = RunPolicy(false, graph, transpose, corpus, index, pagerank);
  Outcome largest = RunPolicy(true, graph, transpose, corpus, index, pagerank);

  std::printf("%-16s %12s %12s %12s %12s\n", "policy", "supernodes",
              "superedges", "bits/edge", "Q1 (s)");
  std::printf("%-16s %12u %12llu %12.2f %12.4f\n", "random",
              random.supernodes,
              static_cast<unsigned long long>(random.superedges),
              random.bits_per_edge, random.q1_seconds);
  std::printf("%-16s %12u %12llu %12.2f %12.4f\n", "largest-first",
              largest.supernodes,
              static_cast<unsigned long long>(largest.superedges),
              largest.bits_per_edge, largest.q1_seconds);

  double size_ratio = largest.bits_per_edge / random.bits_per_edge;
  bench::PrintShapeCheck(
      size_ratio > 0.8 && size_ratio < 1.25,
      "the two policies produce S-Node representations of almost identical "
      "size (paper Section 3.2)");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
