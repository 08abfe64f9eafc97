// Tests for the global-access extensions: WCC, the bow-tie decomposition,
// bulk decoding of an S-Node representation, and the related-pages
// discovery built on the representation layer.

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generator.h"
#include "query/related.h"
#include "repr/huffman_repr.h"
#include "snode/bulk.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

// ---------- WCC ----------

TEST(WccTest, TwoIslands) {
  GraphBuilder b;
  uint32_t h = b.AddHost("www.x.com", "x.com");
  for (int i = 0; i < 6; ++i) b.AddPage("u" + std::to_string(i), h);
  b.AddLink(0, 1);
  b.AddLink(1, 2);
  b.AddLink(4, 3);  // island {3,4}; page 5 isolated
  WccResult wcc = ComputeWcc(b.Build());
  EXPECT_EQ(wcc.num_components, 3u);
  EXPECT_EQ(wcc.largest_component_size, 3u);
  EXPECT_EQ(wcc.component_of[0], wcc.component_of[2]);
  EXPECT_EQ(wcc.component_of[3], wcc.component_of[4]);
  EXPECT_NE(wcc.component_of[0], wcc.component_of[3]);
  EXPECT_NE(wcc.component_of[5], wcc.component_of[0]);
}

TEST(WccTest, DirectionIsIgnored) {
  GraphBuilder b;
  uint32_t h = b.AddHost("www.x.com", "x.com");
  for (int i = 0; i < 4; ++i) b.AddPage("u" + std::to_string(i), h);
  b.AddLink(1, 0);
  b.AddLink(1, 2);
  b.AddLink(3, 2);
  WccResult wcc = ComputeWcc(b.Build());
  EXPECT_EQ(wcc.num_components, 1u);
}

TEST(WccTest, AtLeastAsCoarseAsScc) {
  GeneratorOptions opts;
  opts.num_pages = 4000;
  WebGraph g = GenerateWebGraph(opts);
  WccResult wcc = ComputeWcc(g);
  SccResult scc = ComputeScc(g);
  EXPECT_LE(wcc.num_components, scc.num_components);
  EXPECT_GE(wcc.largest_component_size, scc.largest_component_size);
}

// ---------- Bow-tie ----------

TEST(BowtieTest, ClassicShape) {
  // in0 -> core{1,2} -> out3; page 4 disconnected.
  GraphBuilder b;
  uint32_t h = b.AddHost("www.x.com", "x.com");
  for (int i = 0; i < 5; ++i) b.AddPage("u" + std::to_string(i), h);
  b.AddLink(0, 1);
  b.AddLink(1, 2);
  b.AddLink(2, 1);
  b.AddLink(2, 3);
  WebGraph g = b.Build();
  BowtieResult bowtie = ComputeBowtie(g);
  EXPECT_EQ(bowtie.core, 2u);
  EXPECT_EQ(bowtie.in, 1u);
  EXPECT_EQ(bowtie.out, 1u);
  EXPECT_EQ(bowtie.other, 1u);
  EXPECT_EQ(bowtie.region_of[0], BowtieResult::Region::kIn);
  EXPECT_EQ(bowtie.region_of[1], BowtieResult::Region::kCore);
  EXPECT_EQ(bowtie.region_of[4], BowtieResult::Region::kOther);
}

TEST(BowtieTest, RegionsPartitionThePages) {
  GeneratorOptions opts;
  opts.num_pages = 3000;
  WebGraph g = GenerateWebGraph(opts);
  BowtieResult bowtie = ComputeBowtie(g);
  EXPECT_EQ(bowtie.core + bowtie.in + bowtie.out + bowtie.other,
            g.num_pages());
}

// ---------- Bulk decode ----------

TEST(BulkDecodeTest, EqualsOriginalGraph) {
  GeneratorOptions opts;
  opts.num_pages = 5000;
  opts.seed = 21;
  WebGraph graph = GenerateWebGraph(opts);
  auto repr = SNodeRepr::Build(graph, TempPath("bulk"), {});
  ASSERT_TRUE(repr.ok());
  auto bulk = DecodeAll(repr.value().get());
  ASSERT_TRUE(bulk.ok());
  ASSERT_EQ(bulk.value().num_pages(), graph.num_pages());
  ASSERT_EQ(bulk.value().num_edges(), graph.num_edges());
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    auto a = graph.OutLinks(p);
    auto b = bulk.value().OutLinks(p);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << p;
  }
}

TEST(BulkDecodeTest, SweepIsSequentialOnTheStore) {
  GeneratorOptions opts;
  opts.num_pages = 5000;
  WebGraph graph = GenerateWebGraph(opts);
  SNodeBuildOptions build;
  build.buffer_bytes = 64 << 20;  // roomy: each graph decodes exactly once
  auto repr = SNodeRepr::Build(graph, TempPath("bulkseq"), build);
  ASSERT_TRUE(repr.ok());
  ASSERT_TRUE(DecodeAll(repr.value().get()).ok());
  // In supernode order with a roomy cache, section prefetches dominate and
  // seeks stay near the store's file count, not its graph count.
  EXPECT_LT(repr.value()->stats().disk_seeks,
            repr.value()->supernode_graph().num_supernodes());
}

// ---------- Related pages ----------

TEST(RelatedPagesTest, CocitationFindsCompanionPages) {
  // Referrers 0 and 1 both cite seed 3 and companion 4; 5 is cited once.
  GraphBuilder b;
  uint32_t h = b.AddHost("www.x.com", "x.com");
  for (int i = 0; i < 6; ++i) b.AddPage("u" + std::to_string(i), h);
  b.AddLink(0, 3);
  b.AddLink(0, 4);
  b.AddLink(1, 3);
  b.AddLink(1, 4);
  b.AddLink(1, 5);
  WebGraph g = b.Build();
  WebGraph t = g.Transpose();
  auto fwd = HuffmanRepr::Build(g);
  auto bwd = HuffmanRepr::Build(t);
  auto related = RelatedByCocitation(fwd.get(), bwd.get(), 3, {});
  ASSERT_TRUE(related.ok());
  ASSERT_FALSE(related.value().empty());
  EXPECT_EQ(related.value()[0].page, 4u);
  EXPECT_DOUBLE_EQ(related.value()[0].score, 2.0);
  // The seed itself is never returned.
  for (const auto& r : related.value()) EXPECT_NE(r.page, 3u);
}

TEST(RelatedPagesTest, HitsReturnsAuthoritiesFromBaseSet) {
  GeneratorOptions opts;
  opts.num_pages = 3000;
  WebGraph g = GenerateWebGraph(opts);
  WebGraph t = g.Transpose();
  auto fwd = HuffmanRepr::Build(g);
  auto bwd = HuffmanRepr::Build(t);
  // Use a page with both in- and out-links.
  PageId seed = 1500;
  auto related = RelatedByHits(fwd.get(), bwd.get(), seed, {});
  ASSERT_TRUE(related.ok());
  EXPECT_LE(related.value().size(), RelatedPagesOptions().max_results);
  for (const auto& r : related.value()) {
    EXPECT_NE(r.page, seed);
    EXPECT_GT(r.score, 0.0);
  }
}

TEST(RelatedPagesTest, AgreesAcrossRepresentations) {
  GeneratorOptions opts;
  opts.num_pages = 3000;
  WebGraph g = GenerateWebGraph(opts);
  WebGraph t = g.Transpose();
  auto huff_f = HuffmanRepr::Build(g);
  auto huff_b = HuffmanRepr::Build(t);
  auto sn_f = SNodeRepr::Build(g, TempPath("rel_f"), {});
  auto sn_b = SNodeRepr::Build(t, TempPath("rel_b"), {});
  ASSERT_TRUE(sn_f.ok() && sn_b.ok());
  for (PageId seed : {100u, 777u, 2999u}) {
    auto a = RelatedByCocitation(huff_f.get(), huff_b.get(), seed, {});
    auto b = RelatedByCocitation(sn_f.value().get(), sn_b.value().get(),
                                 seed, {});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().size(), b.value().size()) << seed;
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].page, b.value()[i].page) << seed;
      EXPECT_DOUBLE_EQ(a.value()[i].score, b.value()[i].score) << seed;
    }
  }
}

}  // namespace
}  // namespace wg
