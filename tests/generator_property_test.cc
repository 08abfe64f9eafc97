// Parameterized sweeps over the synthetic-crawl generator: every
// configuration must produce a structurally valid crawl, and each knob
// must move its statistic in the documented direction (these are the
// properties the whole reproduction leans on, so they get their own
// guardrails).

#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "graph/stats.h"

namespace wg {
namespace {

using Param = std::tuple<int /*pages*/, int /*seed*/, int /*mean_deg*/,
                         int /*intra_pct*/>;

class GeneratorSweep : public testing::TestWithParam<Param> {
 protected:
  WebGraph Make() const {
    auto [pages, seed, mean_deg, intra_pct] = GetParam();
    GeneratorOptions opts;
    opts.num_pages = static_cast<size_t>(pages);
    opts.seed = static_cast<uint64_t>(seed);
    opts.mean_out_degree = mean_deg;
    opts.intra_host_prob = intra_pct / 100.0;
    return GenerateWebGraph(opts);
  }
};

TEST_P(GeneratorSweep, StructurallyValid) {
  WebGraph g = Make();
  auto [pages, seed, mean_deg, intra_pct] = GetParam();
  ASSERT_EQ(g.num_pages(), static_cast<size_t>(pages));
  std::set<std::string> urls;
  for (PageId p = 0; p < g.num_pages(); ++p) {
    // Links point to existing earlier pages; lists sorted and unique.
    auto links = g.OutLinks(p);
    for (size_t i = 0; i < links.size(); ++i) {
      ASSERT_LT(links[i], p);
      if (i > 0) {
        ASSERT_LT(links[i - 1], links[i]);
      }
    }
    // Every page belongs to a consistent host/domain pair.
    ASSERT_LT(g.host_id(p), g.num_hosts());
    ASSERT_EQ(g.host_domain(g.host_id(p)), g.domain_id(p));
    ASSERT_TRUE(urls.insert(g.url(p)).second) << g.url(p);
  }
}

TEST_P(GeneratorSweep, WellKnownDomainsAlwaysPresent) {
  WebGraph g = Make();
  for (const char* name : {"stanford.edu", "berkeley.edu", "mit.edu",
                           "caltech.edu", "dilbert.com", "doonesbury.com",
                           "peanuts.com"}) {
    EXPECT_NE(g.FindDomain(name), UINT32_MAX) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GeneratorSweep,
                         testing::Combine(testing::Values(500, 5000),
                                          testing::Values(1, 99),
                                          testing::Values(4, 12),
                                          testing::Values(40, 85)));

TEST(GeneratorKnobTest, MeanDegreeKnobMovesMeanDegree) {
  GeneratorOptions low, high;
  low.num_pages = high.num_pages = 10000;
  low.mean_out_degree = 5;
  high.mean_out_degree = 25;
  WebGraph gl = GenerateWebGraph(low);
  WebGraph gh = GenerateWebGraph(high);
  EXPECT_LT(gl.average_out_degree() * 1.5, gh.average_out_degree());
}

TEST(GeneratorKnobTest, IntraHostKnobMovesLocality) {
  GeneratorOptions low, high;
  low.num_pages = high.num_pages = 10000;
  low.intra_host_prob = 0.3;
  high.intra_host_prob = 0.9;
  double frac_low = ComputeStats(GenerateWebGraph(low)).intra_host_fraction;
  double frac_high = ComputeStats(GenerateWebGraph(high)).intra_host_fraction;
  EXPECT_LT(frac_low + 0.1, frac_high);
}

TEST(GeneratorKnobTest, CopyKnobMovesAdjacencySimilarity) {
  GeneratorOptions low, high;
  low.num_pages = high.num_pages = 10000;
  low.prototype_prob = 0.05;
  low.copy_prob = 0.05;
  high.prototype_prob = 0.9;
  high.copy_prob = 0.8;
  double jac_low = ComputeStats(GenerateWebGraph(low)).mean_best_jaccard;
  double jac_high = ComputeStats(GenerateWebGraph(high)).mean_best_jaccard;
  EXPECT_LT(jac_low, jac_high);
}

TEST(GeneratorKnobTest, DifferentSeedsDifferentGraphs) {
  GeneratorOptions a, b;
  a.num_pages = b.num_pages = 2000;
  a.seed = 1;
  b.seed = 2;
  WebGraph ga = GenerateWebGraph(a);
  WebGraph gb = GenerateWebGraph(b);
  // Same shape parameters, different structure.
  EXPECT_NE(ga.num_edges(), gb.num_edges());
}

TEST(GeneratorKnobTest, ZeroAndOnePageCrawls) {
  GeneratorOptions opts;
  opts.num_pages = 0;
  EXPECT_EQ(GenerateWebGraph(opts).num_pages(), 0u);
  opts.num_pages = 1;
  WebGraph one = GenerateWebGraph(opts);
  EXPECT_EQ(one.num_pages(), 1u);
  EXPECT_EQ(one.num_edges(), 0u);
}

}  // namespace
}  // namespace wg
