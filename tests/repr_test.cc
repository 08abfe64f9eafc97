#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "repr/byte_cache.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "repr/relational_repr.h"
#include "repr/uncompressed_repr.h"
#include "storage/file.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

WebGraph TestGraph(size_t pages = 3000) {
  GeneratorOptions opts;
  opts.num_pages = pages;
  opts.seed = 7;
  return GenerateWebGraph(opts);
}

// Checks every adjacency list of `repr` against the ground truth.
void ExpectMatchesGraph(GraphRepresentation* repr, const WebGraph& graph) {
  ASSERT_EQ(repr->num_pages(), graph.num_pages());
  ASSERT_EQ(repr->num_edges(), graph.num_edges());
  std::vector<PageId> links;
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    links.clear();
    ASSERT_TRUE(repr->GetLinks(p, &links).ok()) << repr->name() << " p=" << p;
    auto expected = graph.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << repr->name() << " p=" << p;
    EXPECT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << repr->name() << " p=" << p;
  }
}

void ExpectDomainIndexMatches(GraphRepresentation* repr,
                              const WebGraph& graph) {
  for (const std::string& domain :
       {std::string("stanford.edu"), std::string("dilbert.com")}) {
    std::vector<PageId> from_repr;
    ASSERT_TRUE(repr->PagesInDomain(domain, &from_repr).ok());
    std::vector<PageId> expected;
    uint32_t d = graph.FindDomain(domain);
    ASSERT_NE(d, UINT32_MAX);
    for (PageId p = 0; p < graph.num_pages(); ++p) {
      if (graph.domain_id(p) == d) expected.push_back(p);
    }
    EXPECT_EQ(from_repr, expected) << repr->name() << " " << domain;
  }
}

// ---------- ByteCache ----------

TEST(ByteCacheTest, LoadsOnceWhileWithinBudget) {
  int loads = 0;
  ByteCache cache(1024, [&loads](uint32_t id, std::vector<uint8_t>* blob) {
    ++loads;
    blob->assign(10, static_cast<uint8_t>(id));
    return Status::OK();
  });
  std::vector<uint8_t> scratch;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.Get(3, &scratch).ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(cache.hits(), 4u);
}

TEST(ByteCacheTest, EvictsLeastRecentlyUsed) {
  int loads = 0;
  ByteCache cache(30, [&loads](uint32_t id, std::vector<uint8_t>* blob) {
    ++loads;
    blob->assign(10, static_cast<uint8_t>(id));
    return Status::OK();
  });
  std::vector<uint8_t> scratch;
  ASSERT_TRUE(cache.Get(1, &scratch).ok());
  ASSERT_TRUE(cache.Get(2, &scratch).ok());
  ASSERT_TRUE(cache.Get(3, &scratch).ok());
  ASSERT_TRUE(cache.Get(1, &scratch).ok());  // refresh 1
  ASSERT_TRUE(cache.Get(4, &scratch).ok());  // evicts 2
  ASSERT_TRUE(cache.Get(2, &scratch).ok());  // reload
  EXPECT_EQ(loads, 5);
  EXPECT_LE(cache.bytes_used(), 30u);
}

TEST(ByteCacheTest, OversizedBlobBypassesCache) {
  ByteCache cache(5, [](uint32_t, std::vector<uint8_t>* blob) {
    blob->assign(100, 1);
    return Status::OK();
  });
  std::vector<uint8_t> scratch;
  auto r = cache.Get(0, &scratch);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->size(), 100u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ByteCacheTest, PropagatesLoaderError) {
  ByteCache cache(100, [](uint32_t, std::vector<uint8_t>*) {
    return Status::IOError("boom");
  });
  std::vector<uint8_t> scratch;
  EXPECT_FALSE(cache.Get(0, &scratch).ok());
}

// ---------- Per-scheme equivalence ----------

TEST(UncompressedReprTest, MatchesGroundTruth) {
  WebGraph graph = TestGraph();
  auto repr = UncompressedFileRepr::Build(graph, TempPath("unc"), {});
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), graph);
  ExpectDomainIndexMatches(repr.value().get(), graph);
}

TEST(UncompressedReprTest, WorksWithTinyBuffer) {
  WebGraph graph = TestGraph(1000);
  UncompressedFileRepr::Options opts;
  opts.block_bytes = 4 << 10;
  opts.buffer_bytes = 4 << 10;  // one block
  auto repr = UncompressedFileRepr::Build(graph, TempPath("unc"), opts);
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), graph);
  EXPECT_GT(repr.value()->stats().disk_reads, 1u);
}

TEST(UncompressedReprTest, BitsPerEdgeNearUncompressedCost) {
  WebGraph graph = TestGraph(1000);
  auto repr = UncompressedFileRepr::Build(graph, TempPath("unc"), {});
  ASSERT_TRUE(repr.ok());
  // 32 bits/target + 32 bits/list count.
  EXPECT_GT(repr.value()->BitsPerEdge(), 32.0);
  EXPECT_LT(repr.value()->BitsPerEdge(), 40.0);
}

TEST(HuffmanReprTest, MatchesGroundTruth) {
  WebGraph graph = TestGraph();
  auto repr = HuffmanRepr::Build(graph);
  ExpectMatchesGraph(repr.get(), graph);
  ExpectDomainIndexMatches(repr.get(), graph);
}

TEST(HuffmanReprTest, CompressesRelativeToRaw) {
  WebGraph graph = TestGraph(10000);
  auto repr = HuffmanRepr::Build(graph);
  EXPECT_LT(repr->BitsPerEdge(), 32.0);
  EXPECT_GT(repr->BitsPerEdge(), 4.0);
}

TEST(HuffmanReprTest, TransposeMatches) {
  WebGraph graph = TestGraph(2000);
  WebGraph t = graph.Transpose();
  auto repr = HuffmanRepr::Build(t);
  ExpectMatchesGraph(repr.get(), t);
}

TEST(Link3ReprTest, MatchesGroundTruth) {
  WebGraph graph = TestGraph();
  auto repr = Link3Repr::Build(graph, TempPath("l3"), {});
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), graph);
  ExpectDomainIndexMatches(repr.value().get(), graph);
}

TEST(Link3ReprTest, TransposeMatches) {
  WebGraph graph = TestGraph(2000);
  WebGraph t = graph.Transpose();
  auto repr = Link3Repr::Build(t, TempPath("l3t"), {});
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), t);
}

TEST(Link3ReprTest, CompressesBetterThanHuffman) {
  WebGraph graph = TestGraph(20000);
  auto huff = HuffmanRepr::Build(graph);
  auto l3 = Link3Repr::Build(graph, TempPath("l3c"), {});
  ASSERT_TRUE(l3.ok());
  // The central compression claim for reference-encoded schemes.
  EXPECT_LT(l3.value()->BitsPerEdge(), huff->BitsPerEdge());
}

TEST(Link3ReprTest, WorksWithTinyBuffer) {
  WebGraph graph = TestGraph(1000);
  Link3Repr::Options opts;
  opts.buffer_bytes = 2048;
  auto repr = Link3Repr::Build(graph, TempPath("l3b"), opts);
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), graph);
}

TEST(RelationalReprTest, MatchesGroundTruth) {
  WebGraph graph = TestGraph();
  auto repr = RelationalRepr::Build(graph, TempPath("rel"), {});
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), graph);
  ExpectDomainIndexMatches(repr.value().get(), graph);
}

TEST(RelationalReprTest, TinyBufferPoolStillCorrect) {
  WebGraph graph = TestGraph(1500);
  RelationalRepr::Options opts;
  opts.buffer_bytes = 0;  // minimum 8 frames
  auto repr = RelationalRepr::Build(graph, TempPath("rel2"), opts);
  ASSERT_TRUE(repr.ok());
  ExpectMatchesGraph(repr.value().get(), graph);
  EXPECT_GT(repr.value()->pager_stats().misses, 0u);
}

TEST(RelationalReprTest, HubPagesWithHugeListsRoundTrip) {
  // Force rows that overflow a storage page.
  GraphBuilder b;
  uint32_t h = b.AddHost("www.hub.com", "hub.com");
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    b.AddPage("http://www.hub.com/p" + std::to_string(i), h);
  }
  for (int i = 1; i < kN; ++i) b.AddLink(0, i);  // degree 4999
  WebGraph graph = b.Build();
  auto repr = RelationalRepr::Build(graph, TempPath("rel3"), {});
  ASSERT_TRUE(repr.ok());
  std::vector<PageId> links;
  ASSERT_TRUE(repr.value()->GetLinks(0, &links).ok());
  EXPECT_EQ(links.size(), static_cast<size_t>(kN - 1));
}

TEST(ReprStatsTest, CountsRequestsAndEdges) {
  WebGraph graph = TestGraph(500);
  auto repr = HuffmanRepr::Build(graph);
  std::vector<PageId> links;
  for (PageId p = 0; p < 100; ++p) {
    ASSERT_TRUE(repr->GetLinks(p, &links).ok());
  }
  EXPECT_EQ(repr->stats().adjacency_requests, 100u);
  uint64_t expected_edges = 0;
  for (PageId p = 0; p < 100; ++p) expected_edges += graph.out_degree(p);
  EXPECT_EQ(repr->stats().edges_returned, expected_edges);
}

TEST(ReprTest, OutOfRangePageIsError) {
  WebGraph graph = TestGraph(100);
  auto repr = HuffmanRepr::Build(graph);
  std::vector<PageId> links;
  EXPECT_FALSE(repr->GetLinks(100000, &links).ok());
}

}  // namespace
}  // namespace wg
