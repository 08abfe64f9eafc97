// Figure 12 of the paper: S-Node navigation time for queries 1, 5 and 6
// as a function of the memory-buffer budget. The paper's claim: after an
// initial drop, each curve goes flat -- once the buffer holds all the
// intranode and superedge graphs relevant to a query, more memory does not
// help. The knee positions also justify the budget used in Figure 11.

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

constexpr size_t kPages = 100000;
constexpr int kTrials = 3;
const int kQueries[] = {1, 5, 6};
// Budget sweep (total across both directions), paper-style growth.
const size_t kBudgetsKb[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048};

void Run() {
  bench::PrintHeader(
      "Figure 12: S-Node navigation time vs memory-buffer size");
  WebGraph graph = bench::FullCrawl().InducedPrefix(kPages);
  WebGraph transpose = graph.Transpose();
  Corpus corpus = Corpus::Generate(graph, CorpusOptions());
  InvertedIndex index = InvertedIndex::Build(corpus);
  std::vector<double> pagerank = ComputePageRank(graph);

  auto fwd = bench::UnwrapOrDie(SNodeRepr::Build(
      graph, bench::BenchDir() + "/f12_f", {}));
  auto bwd = bench::UnwrapOrDie(SNodeRepr::Build(
      transpose, bench::BenchDir() + "/f12_b", {}));
  QueryContext ctx;
  ctx.forward = fwd.get();
  ctx.backward = bwd.get();
  ctx.graph = &graph;
  ctx.corpus = &corpus;
  ctx.index = &index;
  ctx.pagerank = &pagerank;

  std::printf("%12s", "buffer (KB)");
  for (int q : kQueries) std::printf("   Q%d (s)", q);
  std::printf("\n");

  // times[budget][query index]
  std::vector<std::vector<double>> times;
  for (size_t budget_kb : kBudgetsKb) {
    fwd->set_buffer_budget(budget_kb << 9);  // half per direction
    bwd->set_buffer_budget(budget_kb << 9);
    std::vector<double> row;
    for (int q : kQueries) {
      double total = 0;
      for (int t = 0; t < kTrials; ++t) {
        fwd->ClearBuffers();
        bwd->ClearBuffers();
        fwd->stats().Reset();
        bwd->stats().Reset();
        auto result = bench::UnwrapOrDie(RunQuery(q, ctx));
        total += bench::ModeledSeconds(result.navigation_seconds,
                                       fwd->stats()) +
                 bwd->stats().disk_seeks * bench::kSeekSeconds +
                 bwd->stats().disk_transfer_bytes / bench::kBytesPerSecond;
      }
      row.push_back(total / kTrials);
    }
    times.push_back(row);
    std::printf("%12zu", budget_kb);
    for (double t : row) std::printf(" %8.4f", t);
    std::printf("\n");
  }

  // Shape: for each query, the curve falls from the smallest budget and is
  // essentially flat (within 25%) over the top half of the sweep.
  bool drops = true, flattens = true;
  size_t n = times.size();
  for (size_t qi = 0; qi < 3; ++qi) {
    double first = times[0][qi];
    double last = times[n - 1][qi];
    if (last > first * 0.9) drops = false;
    for (size_t b = n / 2; b < n; ++b) {
      if (times[b][qi] > times[n / 2][qi] * 1.25 + 1e-9) flattens = false;
    }
  }
  bench::PrintShapeCheck(drops,
                         "navigation time drops as the buffer grows from "
                         "the minimum");
  bench::PrintShapeCheck(
      flattens,
      "curves go flat once the buffer holds each query's relevant "
      "intranode/superedge graphs (Fig 12)");
}

}  // namespace
}  // namespace wg

int main() {
  wg::Run();
  return wg::bench::ShapeExitCode();
}
