// End-to-end pipeline integration: generate -> save crawl -> reload ->
// build S-Node -> persist -> reopen -> run the full query workload, and
// verify everything agrees with an in-memory reference at every step.
// This is the path a downstream user of the library walks.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "graph/graph_io.h"
#include "query/queries.h"
#include "repr/huffman_repr.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/pagerank.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

TEST(PipelineIntegrationTest, FullLifecycle) {
  // 1. Generate and persist a crawl.
  GeneratorOptions gen;
  gen.num_pages = 8000;
  gen.seed = 2003;  // the paper's year
  WebGraph original = GenerateWebGraph(gen);
  std::string crawl_path = TempPath("crawl");
  ASSERT_TRUE(SaveWebGraph(original, crawl_path).ok());

  // 2. Reload; everything downstream uses the reloaded copy.
  auto loaded = LoadWebGraph(crawl_path);
  ASSERT_TRUE(loaded.ok());
  WebGraph graph = std::move(loaded).value();
  WebGraph transpose = graph.Transpose();

  // 3. Build both S-Node directions and persist them.
  std::string fwd_path = TempPath("fwd");
  std::string bwd_path = TempPath("bwd");
  {
    auto fwd = SNodeRepr::Build(graph, fwd_path, {});
    auto bwd = SNodeRepr::Build(transpose, bwd_path, {});
    ASSERT_TRUE(fwd.ok());
    ASSERT_TRUE(bwd.ok());
    ASSERT_TRUE(fwd.value()->SaveMeta().ok());
    ASSERT_TRUE(bwd.value()->SaveMeta().ok());
    // Builders go out of scope: the reopened representations below must be
    // fully self-contained.
  }
  auto fwd = SNodeRepr::Open(fwd_path, {});
  auto bwd = SNodeRepr::Open(bwd_path, {});
  ASSERT_TRUE(fwd.ok());
  ASSERT_TRUE(bwd.ok());

  // 4. Auxiliary indexes + the whole query workload, against a reference
  //    in-memory representation.
  Corpus corpus = Corpus::Generate(graph, CorpusOptions());
  InvertedIndex index = InvertedIndex::Build(corpus);
  std::vector<double> pagerank = ComputePageRank(graph);
  auto ref_fwd = HuffmanRepr::Build(graph);
  auto ref_bwd = HuffmanRepr::Build(transpose);

  QueryContext snode_ctx{fwd.value().get(), bwd.value().get(), &graph,
                         &corpus, &index, &pagerank};
  QueryContext ref_ctx{ref_fwd.get(), ref_bwd.get(), &graph, &corpus,
                       &index, &pagerank};
  for (int q = 1; q <= kNumQueries; ++q) {
    auto got = RunQuery(q, snode_ctx);
    auto expected = RunQuery(q, ref_ctx);
    ASSERT_TRUE(got.ok()) << q;
    ASSERT_TRUE(expected.ok()) << q;
    ASSERT_EQ(got.value().ranked.size(), expected.value().ranked.size())
        << q;
    for (size_t i = 0; i < expected.value().ranked.size(); ++i) {
      EXPECT_EQ(got.value().ranked[i].first,
                expected.value().ranked[i].first)
          << "query " << q << " row " << i;
      EXPECT_NEAR(got.value().ranked[i].second,
                  expected.value().ranked[i].second, 1e-9)
          << "query " << q << " row " << i;
    }
  }

  // 5. The reopened representation reports sane instrumentation.
  EXPECT_GT(fwd.value()->stats().graphs_loaded, 0u);
  EXPECT_GT(fwd.value()->BitsPerEdge(), 0.0);
}

}  // namespace
}  // namespace wg
