// Table 3 of the paper: the six complex queries used in the evaluation.
// This binary is the workload specification: it prints each query's
// description and main graph operation (the table's columns), executes it
// once on the reference in-memory representation, and reports the result
// shape (row counts and top answers) so the workload used by Figures 11
// and 12 is inspectable.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "repr/huffman_repr.h"

namespace wg {
namespace {

constexpr size_t kPages = 100000;

struct Spec {
  const char* description;
  const char* graph_operation;
};

const Spec kSpecs[kNumQueries] = {
    {"Universities that Stanford 'mobile networking' pages refer to, "
     "weighted by normalized PageRank (Analysis 1)",
     "subset of the out-neighborhood of a set of pages"},
    {"Relative popularity of three comic strips among stanford.edu pages "
     "(Analysis 2)",
     "count links between 3 pairs of page sets"},
    {"Kleinberg base set of the top-100-PageRank 'internet censorship' "
     "pages",
     "union of out- and in-neighborhoods of a page set"},
    {"10 most popular 'quantum cryptography' pages at Stanford, MIT, "
     "Caltech, Berkeley (popularity = external in-links)",
     "in-neighborhood of four page sets"},
    {"'computer music synthesis' pages ranked by in-links from within the "
     "set; top 10 .edu pages",
     "graph induced by a page set"},
    {"Pages outside stanford/berkeley cited by 'optical interferometry' "
     "pages of both, ranked by in-links from them",
     "intersection of out-neighborhoods of two page sets"},
};

void Run() {
  bench::PrintHeader("Table 3: the evaluation queries (workload spec)");
  WebGraph graph = bench::FullCrawl().InducedPrefix(kPages);
  WebGraph transpose = graph.Transpose();
  Corpus corpus = Corpus::Generate(graph, CorpusOptions());
  InvertedIndex index = InvertedIndex::Build(corpus);
  std::vector<double> pagerank = ComputePageRank(graph);
  auto fwd = HuffmanRepr::Build(graph);
  auto bwd = HuffmanRepr::Build(transpose);
  QueryContext ctx;
  ctx.forward = fwd.get();
  ctx.backward = bwd.get();
  ctx.graph = &graph;
  ctx.corpus = &corpus;
  ctx.index = &index;
  ctx.pagerank = &pagerank;

  bool all_nonempty = true;
  for (int q = 1; q <= kNumQueries; ++q) {
    const Spec& spec = kSpecs[q - 1];
    std::printf("\nQuery %d: %s\n  main graph operation: %s\n", q,
                spec.description, spec.graph_operation);
    auto result = bench::UnwrapOrDie(RunQuery(q, ctx));
    std::printf("  result rows: %zu\n", result.ranked.size());
    for (size_t i = 0; i < result.ranked.size() && i < 3; ++i) {
      std::printf("    %-55s %10.4f\n",
                  result.ranked[i].first.substr(0, 55).c_str(),
                  result.ranked[i].second);
    }
    if (result.ranked.empty()) all_nonempty = false;
  }
  std::printf("\n");
  bench::PrintShapeCheck(all_nonempty,
                         "every Table 3 query has a non-trivial answer on "
                         "the synthetic repository");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
