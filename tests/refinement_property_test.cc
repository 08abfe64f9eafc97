// Parameterized invariants of the iterative partition refinement across
// option combinations: every configuration must produce a valid,
// domain-pure, URL-sorted, deterministic partition; the knobs must move
// granularity in the documented direction.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/refinement.h"

namespace wg {
namespace {

const WebGraph& SharedGraph() {
  static WebGraph* graph = [] {
    GeneratorOptions opts;
    opts.num_pages = 12000;
    opts.seed = 61;
    return new WebGraph(GenerateWebGraph(opts));
  }();
  return *graph;
}

using Param = std::tuple<int /*min_split*/, bool /*clustered*/,
                         bool /*largest_first*/, int /*url_levels*/>;

class RefinementSweep : public testing::TestWithParam<Param> {
 protected:
  RefinementOptions Options() const {
    auto [min_split, clustered, largest, levels] = GetParam();
    RefinementOptions opts;
    opts.min_split_size = static_cast<size_t>(min_split);
    opts.min_group_size = static_cast<size_t>(min_split) / 4;
    opts.use_clustered_split = clustered;
    opts.split_largest_first = largest;
    opts.url_split_max_levels = levels;
    return opts;
  }
};

TEST_P(RefinementSweep, PartitionIsValidDomainPureAndSorted) {
  const WebGraph& graph = SharedGraph();
  RefinementStats stats;
  Partition partition = RefinePartition(graph, Options(), &stats);
  ASSERT_TRUE(partition.Validate(graph.num_pages()).ok());
  EXPECT_EQ(stats.final_elements, partition.num_elements());
  for (const auto& element : partition.elements) {
    uint32_t domain = graph.domain_id(element[0]);
    for (size_t i = 0; i < element.size(); ++i) {
      ASSERT_EQ(graph.domain_id(element[i]), domain);
      if (i > 0) {
        ASSERT_LE(graph.url(element[i - 1]), graph.url(element[i]));
      }
    }
  }
}

TEST_P(RefinementSweep, Deterministic) {
  const WebGraph& graph = SharedGraph();
  Partition a = RefinePartition(graph, Options(), nullptr);
  Partition b = RefinePartition(graph, Options(), nullptr);
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (size_t e = 0; e < a.num_elements(); ++e) {
    ASSERT_EQ(a.elements[e], b.elements[e]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, RefinementSweep,
    testing::Combine(testing::Values(64, 256, 1024), testing::Bool(),
                     testing::Bool(), testing::Values(1, 3)));

TEST(RefinementKnobTest, SmallerFloorGivesFinerPartition) {
  const WebGraph& graph = SharedGraph();
  RefinementOptions coarse;
  coarse.min_split_size = 2048;
  coarse.min_group_size = 512;
  RefinementOptions fine;
  fine.min_split_size = 64;
  fine.min_group_size = 16;
  Partition pc = RefinePartition(graph, coarse, nullptr);
  Partition pf = RefinePartition(graph, fine, nullptr);
  EXPECT_GE(pf.num_elements(), pc.num_elements());
}

TEST(RefinementKnobTest, RefinementNeverCoarsensInitialPartition) {
  const WebGraph& graph = SharedGraph();
  Partition p0 = InitialDomainPartition(graph);
  Partition pf = RefinePartition(graph, {}, nullptr);
  EXPECT_GE(pf.num_elements(), p0.num_elements());
  // Every final element is a subset of exactly one initial element.
  auto owner0 = p0.ElementOf(graph.num_pages());
  for (const auto& element : pf.elements) {
    uint32_t first = owner0[element[0]];
    for (PageId p : element) ASSERT_EQ(owner0[p], first);
  }
}

TEST(RefinementKnobTest, AbortFractionControlsPersistence) {
  // A higher abort_max fraction lets the process keep probing longer, so
  // it can only produce >= as many clustered splits.
  const WebGraph& graph = SharedGraph();
  RefinementOptions impatient;
  impatient.min_split_size = 96;
  impatient.min_group_size = 24;
  impatient.abort_max_fraction = 0.001;
  RefinementOptions patient = impatient;
  patient.abort_max_fraction = 0.5;
  RefinementStats a, b;
  RefinePartition(graph, impatient, &a);
  RefinePartition(graph, patient, &b);
  EXPECT_LE(a.clustered_splits + a.clustered_aborts,
            b.clustered_splits + b.clustered_aborts);
}

}  // namespace
}  // namespace wg
