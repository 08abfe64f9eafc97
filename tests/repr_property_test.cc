// Parameterized properties every GraphRepresentation implementation must
// satisfy, run against all five schemes over several workloads:
//   * adjacency equals ground truth for every page;
//   * the filtered visit (VisitLinksInto) equals unfiltered + intersect --
//     this is where S-Node's supernode-graph pushdown is proven correct;
//   * PagesInDomain equals the ground-truth domain partition;
//   * PageInNaturalOrder is a permutation;
//   * ClearBuffers is invisible to results;
//   * bits/edge is positive and sane.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "repr/relational_repr.h"
#include "repr/uncompressed_repr.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "util/rng.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

// One workload (graph) shared across schemes, keyed by (pages, seed).
const WebGraph& Workload(size_t pages, uint64_t seed) {
  static auto* cache =
      new std::map<std::pair<size_t, uint64_t>, WebGraph>();
  auto key = std::make_pair(pages, seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    GeneratorOptions opts;
    opts.num_pages = pages;
    opts.seed = seed;
    it = cache->emplace(key, GenerateWebGraph(opts)).first;
  }
  return it->second;
}

struct SchemeFactory {
  const char* name;
  std::function<std::unique_ptr<GraphRepresentation>(const WebGraph&)> make;
};

const SchemeFactory kFactories[] = {
    {"huffman",
     [](const WebGraph& g) -> std::unique_ptr<GraphRepresentation> {
       return HuffmanRepr::Build(g);
     }},
    {"uncompressed",
     [](const WebGraph& g) -> std::unique_ptr<GraphRepresentation> {
       auto r = UncompressedFileRepr::Build(g, TempPath("unc"), {});
       WG_CHECK(r.ok());
       return std::move(r).value();
     }},
    {"relational",
     [](const WebGraph& g) -> std::unique_ptr<GraphRepresentation> {
       auto r = RelationalRepr::Build(g, TempPath("rel"), {});
       WG_CHECK(r.ok());
       return std::move(r).value();
     }},
    {"link3",
     [](const WebGraph& g) -> std::unique_ptr<GraphRepresentation> {
       auto r = Link3Repr::Build(g, TempPath("l3"), {});
       WG_CHECK(r.ok());
       return std::move(r).value();
     }},
    {"snode",
     [](const WebGraph& g) -> std::unique_ptr<GraphRepresentation> {
       auto r = SNodeRepr::Build(g, TempPath("sn"), {});
       WG_CHECK(r.ok());
       return std::move(r).value();
     }},
};

using Param = std::tuple<int /*factory*/, int /*pages*/, int /*seed*/>;

class ReprProperty : public testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    auto [factory, pages, seed] = GetParam();
    graph_ = &Workload(static_cast<size_t>(pages),
                       static_cast<uint64_t>(seed));
    repr_ = kFactories[factory].make(*graph_);
  }

  const WebGraph* graph_ = nullptr;
  std::unique_ptr<GraphRepresentation> repr_;
};

TEST_P(ReprProperty, AdjacencyEqualsGroundTruth) {
  std::vector<PageId> links;
  for (PageId p = 0; p < graph_->num_pages(); ++p) {
    links.clear();
    ASSERT_TRUE(repr_->GetLinks(p, &links).ok()) << p;
    auto expected = graph_->OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << p;
  }
}

TEST_P(ReprProperty, FilteredVisitEqualsIntersect) {
  Rng rng(123);
  size_t n = graph_->num_pages();
  // Several random (sources, targets) pairs, including degenerate ones.
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<PageId> sources, targets;
    size_t src_count = trial == 0 ? 0 : rng.Uniform(60);
    size_t tgt_count = trial == 1 ? 0 : rng.Uniform(400);
    for (size_t i = 0; i < src_count; ++i) {
      sources.push_back(static_cast<PageId>(rng.Uniform(n)));
    }
    for (size_t i = 0; i < tgt_count; ++i) {
      targets.push_back(static_cast<PageId>(rng.Uniform(n)));
    }
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()),
                  sources.end());
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    std::map<PageId, std::vector<PageId>> filtered;
    ASSERT_TRUE(repr_
                    ->VisitLinksInto(sources, targets,
                                     [&](PageId p,
                                         const std::vector<PageId>& links) {
                                       filtered[p] = links;
                                     })
                    .ok());
    ASSERT_EQ(filtered.size(), sources.size());
    for (PageId p : sources) {
      std::vector<PageId> expected;
      for (PageId q : graph_->OutLinks(p)) {
        if (std::binary_search(targets.begin(), targets.end(), q)) {
          expected.push_back(q);
        }
      }
      ASSERT_EQ(filtered[p], expected) << "source " << p;
    }
  }
}

TEST_P(ReprProperty, DomainIndexEqualsGroundTruth) {
  for (uint32_t d = 0; d < graph_->num_domains(); d += 7) {
    const std::string& name = graph_->domain_name(d);
    std::vector<PageId> pages;
    ASSERT_TRUE(repr_->PagesInDomain(name, &pages).ok());
    std::vector<PageId> expected;
    for (PageId p = 0; p < graph_->num_pages(); ++p) {
      if (graph_->domain_id(p) == d) expected.push_back(p);
    }
    ASSERT_EQ(pages, expected) << name;
  }
}

TEST_P(ReprProperty, NaturalOrderIsAPermutation) {
  std::vector<char> seen(graph_->num_pages(), 0);
  for (size_t i = 0; i < graph_->num_pages(); ++i) {
    PageId p = repr_->PageInNaturalOrder(i);
    ASSERT_LT(p, graph_->num_pages());
    ASSERT_FALSE(seen[p]) << "duplicate at " << i;
    seen[p] = 1;
  }
}

TEST_P(ReprProperty, ClearBuffersIsInvisible) {
  std::vector<PageId> before, after;
  PageId probe = static_cast<PageId>(graph_->num_pages() / 2);
  ASSERT_TRUE(repr_->GetLinks(probe, &before).ok());
  repr_->ClearBuffers();
  ASSERT_TRUE(repr_->GetLinks(probe, &after).ok());
  EXPECT_EQ(before, after);
}

TEST_P(ReprProperty, BitsPerEdgeSane) {
  EXPECT_GT(repr_->BitsPerEdge(), 0.1);
  EXPECT_LT(repr_->BitsPerEdge(), 100000.0);
  EXPECT_EQ(repr_->num_pages(), graph_->num_pages());
  EXPECT_EQ(repr_->num_edges(), graph_->num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ReprProperty,
    testing::Combine(testing::Range(0, 5), testing::Values(2500),
                     testing::Values(3, 17)),
    [](const testing::TestParamInfo<Param>& info) {
      return std::string(kFactories[std::get<0>(info.param)].name) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace wg
