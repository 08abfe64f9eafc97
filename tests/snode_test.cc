#include <algorithm>
#include <functional>
#include <numeric>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "repr/huffman_repr.h"
#include "snode/codecs.h"
#include "snode/partition.h"
#include "snode/reference_encoding.h"
#include "snode/refinement.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "storage/serial.h"
#include "util/bitstream.h"
#include "util/coding.h"
#include "util/rle.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

// ---------- Reference plan ----------

// One edge of an affinity graph: encoding list `to` against `from` (or
// stand-alone, from the virtual root) costs `weight` bits.
struct AffinityEdge {
  int from;
  int to;
  int64_t weight;
};

// Brute force: try all parent assignments (tiny n) and keep the cheapest
// one that forms an arborescence (every node reaches the root upward).
int64_t BruteForceArborescence(int n, int root,
                               const std::vector<AffinityEdge>& edges) {
  std::vector<std::vector<int>> incoming(n);
  for (int e = 0; e < static_cast<int>(edges.size()); ++e) {
    incoming[edges[e].to].push_back(e);
  }
  std::vector<int> choice(n, -1);
  int64_t best = INT64_MAX;
  // Enumerate assignments recursively.
  std::function<void(int, int64_t)> rec = [&](int v, int64_t cost) {
    if (cost >= best) return;
    if (v == n) {
      // Validate: walking parents from each node reaches root acyclically.
      for (int u = 0; u < n; ++u) {
        if (u == root) continue;
        int steps = 0;
        int w = u;
        while (w != root && steps <= n) {
          w = edges[choice[w]].from;
          ++steps;
        }
        if (w != root) return;
      }
      best = cost;
      return;
    }
    if (v == root) {
      rec(v + 1, cost);
      return;
    }
    for (int e : incoming[v]) {
      choice[v] = e;
      rec(v + 1, cost + edges[e].weight);
    }
    choice[v] = -1;
  };
  rec(0, 0);
  return best;
}

// The paper's affinity graph restricted to backward windows: a root edge
// per list at its stand-alone cost, plus x -> i for every non-empty list
// x among the `window` lists before i, at the cost of encoding i against
// x (naming x costs gamma(i - x - 1)).
std::vector<AffinityEdge> BackwardWindowAffinityGraph(
    const std::vector<std::vector<uint32_t>>& lists, uint32_t universe,
    int window) {
  int n = static_cast<int>(lists.size());
  std::vector<AffinityEdge> edges;
  std::vector<uint8_t> copy_bits;
  std::vector<uint32_t> residuals;
  for (int i = 0; i < n; ++i) {
    edges.push_back({n, i, static_cast<int64_t>(
                               StandaloneCostBits(lists[i], universe))});
    for (int x = std::max(0, i - window); x < i; ++x) {
      if (lists[x].empty()) continue;
      DiffAgainstReference(lists[i], lists[x], &copy_bits, &residuals);
      edges.push_back({x, i, GammaCost(i - x - 1) +
                                 static_cast<int64_t>(
                                     RleBitsCost(copy_bits) +
                                     StandaloneCostBits(residuals, universe))});
    }
  }
  return edges;
}

TEST(ReferencePlanTest, MatchesBruteForceArborescence) {
  std::mt19937_64 gen(21);
  for (int trial = 0; trial < 200; ++trial) {
    int n = 1 + static_cast<int>(gen() % 6);
    uint32_t universe = 1 + static_cast<uint32_t>(gen() % 24);
    int window = 1 + static_cast<int>(gen() % 4);
    // Lists drawn around a shared base, so references often pay off.
    std::vector<uint32_t> base;
    for (uint32_t v = 0; v < universe; ++v) {
      if (gen() % 3 == 0) base.push_back(v);
    }
    std::vector<std::vector<uint32_t>> lists(n);
    for (auto& list : lists) {
      for (uint32_t v = 0; v < universe; ++v) {
        bool in_base = std::binary_search(base.begin(), base.end(), v);
        if (gen() % 8 < (in_base ? 6u : 1u)) list.push_back(v);
      }
      if (gen() % 5 == 0) list.clear();
    }
    ReferencePlan plan = ComputeReferencePlan(lists, universe, window);
    auto edges = BackwardWindowAffinityGraph(lists, universe, window);
    EXPECT_EQ(static_cast<int64_t>(plan.total_cost_bits),
              BruteForceArborescence(n + 1, n, edges))
        << "trial " << trial;
    for (int i = 0; i < n; ++i) {
      int ref = plan.reference[i];
      if (ref == kNoReference) continue;
      EXPECT_LT(ref, i);
      EXPECT_GE(ref, i - window);
      EXPECT_FALSE(lists[ref].empty());
    }
  }
}

TEST(ReferencePlanTest, IdenticalListsGetReferences) {
  std::vector<std::vector<uint32_t>> lists(6, {1, 5, 9, 12, 40, 77});
  ReferencePlan plan = ComputeReferencePlan(lists, 100, 8);
  int referenced = 0;
  for (int r : plan.reference) {
    if (r != kNoReference) ++referenced;
  }
  EXPECT_EQ(referenced, 5);  // all but one root
}

TEST(ReferencePlanTest, PlanNeverWorseThanStandalone) {
  std::mt19937_64 gen(9);
  std::vector<std::vector<uint32_t>> lists;
  for (int i = 0; i < 50; ++i) {
    std::vector<uint32_t> list;
    for (int j = 0; j < 15; ++j) list.push_back(gen() % 500);
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    lists.push_back(list);
  }
  uint64_t standalone_total = 0;
  for (const auto& l : lists) standalone_total += StandaloneCostBits(l, 500);
  ReferencePlan plan = ComputeReferencePlan(lists, 500, 8);
  EXPECT_LE(plan.total_cost_bits, standalone_total);
}

// ---------- Intranode codec ----------

std::vector<std::vector<uint32_t>> RandomLists(std::mt19937_64* gen, size_t n,
                                               uint32_t universe,
                                               int max_degree) {
  std::vector<std::vector<uint32_t>> lists(n);
  for (auto& list : lists) {
    int degree = static_cast<int>((*gen)() % (max_degree + 1));
    std::set<uint32_t> s;
    for (int j = 0; j < degree; ++j) s.insert((*gen)() % universe);
    list.assign(s.begin(), s.end());
  }
  return lists;
}

TEST(IntranodeCodecTest, RoundTripRandom) {
  std::mt19937_64 gen(33);
  for (int trial = 0; trial < 30; ++trial) {
    size_t n = 1 + gen() % 60;
    auto lists = RandomLists(&gen, n, static_cast<uint32_t>(n), 12);
    auto blob = EncodeIntranode(lists, {});
    IntranodeGraph decoded;
    ASSERT_TRUE(DecodeIntranode(blob, n, &decoded).ok());
    ASSERT_EQ(decoded.num_pages, n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded.ListOf(i), lists[i]) << "trial " << trial << " i=" << i;
    }
  }
}

TEST(IntranodeCodecTest, EmptyGraph) {
  auto blob = EncodeIntranode({}, {});
  IntranodeGraph decoded;
  ASSERT_TRUE(DecodeIntranode(blob, 0, &decoded).ok());
  EXPECT_EQ(decoded.num_pages, 0u);
}

TEST(IntranodeCodecTest, AllEmptyLists) {
  std::vector<std::vector<uint32_t>> lists(10);
  auto blob = EncodeIntranode(lists, {});
  IntranodeGraph decoded;
  ASSERT_TRUE(DecodeIntranode(blob, 10, &decoded).ok());
  EXPECT_EQ(decoded.num_pages, 10u);
  EXPECT_EQ(decoded.num_edges(), 0u);
}

TEST(IntranodeCodecTest, SimilarListsCompressBetterThanWithoutReferences) {
  // Clone-heavy lists, the structure link copying produces. Targets are
  // local ids, so they must stay within [0, lists.size()).
  constexpr uint32_t kN = 400;
  std::mt19937_64 gen(44);
  std::vector<std::vector<uint32_t>> lists;
  std::vector<uint32_t> base;
  for (int j = 0; j < 20; ++j) base.push_back(gen() % 300);
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  for (uint32_t i = 0; i < kN; ++i) {
    auto copy = base;
    if (gen() % 2) copy.push_back(300 + (gen() % 100));
    std::sort(copy.begin(), copy.end());
    copy.erase(std::unique(copy.begin(), copy.end()), copy.end());
    lists.push_back(copy);
  }
  IntranodeEncodeOptions with_ref;
  IntranodeEncodeOptions no_ref;
  no_ref.use_reference_encoding = false;
  EXPECT_LT(EncodeIntranode(lists, with_ref).size(),
            EncodeIntranode(lists, no_ref).size());
}

TEST(IntranodeCodecTest, RejectsCorruptBlob) {
  std::vector<uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0xff};
  IntranodeGraph decoded;
  EXPECT_FALSE(DecodeIntranode(garbage, 10, &decoded).ok());
}

// The caller knows the page count (the section's page range), so a blob
// whose header claims another is Corruption before the decoder sizes
// anything by it -- here an 8-byte blob claiming 2^28 pages.
TEST(IntranodeCodecTest, HeaderPageCountMustMatchCaller) {
  BitWriter w;
  WriteGamma(&w, uint64_t{1} << 28);
  std::vector<uint8_t> blob = w.Finish();
  blob.resize(8, 0xff);
  IntranodeGraph decoded;
  Status status = DecodeIntranode(blob, 10, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_LT(decoded.offsets.capacity() * sizeof(uint32_t), 1024u);
  EXPECT_LT(decoded.targets.capacity() * sizeof(uint32_t), 1024u);

  // A well-formed blob decoded against the wrong page count fails too.
  std::vector<std::vector<uint32_t>> lists = {{1}, {0, 2}, {}};
  EXPECT_EQ(DecodeIntranode(EncodeIntranode(lists, {}), 4, &decoded).code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(DecodeIntranode(EncodeIntranode(lists, {}), 3, &decoded).ok());
}

// Blob size follows from the planner's cost model: the gamma page count,
// one reference flag per list and the plan's cost, padded to a byte.
TEST(IntranodeCodecTest, SizeMatchesPlanCost) {
  std::mt19937_64 gen(34);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t n = gen() % 40;
    auto lists = RandomLists(&gen, n, static_cast<uint32_t>(n),
                             1 + static_cast<int>(gen() % 12));
    if (n > 1 && gen() % 2) lists[n - 1] = lists[n - 2];  // a clone
    IntranodeEncodeOptions options;
    options.use_reference_encoding = gen() % 4 != 0;
    ReferencePlan plan =
        ComputeReferencePlan(lists, static_cast<uint32_t>(n),
                             kIntranodeReferenceWindow,
                             options.use_reference_encoding);
    uint64_t bits = GammaCost(n) + n + plan.total_cost_bits;
    ASSERT_EQ(EncodeIntranode(lists, options).size(), (bits + 7) / 8)
        << "trial " << trial;
  }
}

// ---------- Superedge codec ----------

struct BipartiteCase {
  std::vector<uint32_t> sources;
  std::vector<std::vector<uint32_t>> lists;
  uint32_t ni;
  uint32_t nj;
};

BipartiteCase RandomBipartite(std::mt19937_64* gen, double density) {
  BipartiteCase c;
  c.ni = 2 + (*gen)() % 30;
  c.nj = 2 + (*gen)() % 30;
  for (uint32_t s = 0; s < c.ni; ++s) {
    std::vector<uint32_t> list;
    for (uint32_t t = 0; t < c.nj; ++t) {
      if ((*gen)() % 1000 < density * 1000) list.push_back(t);
    }
    if (!list.empty()) {
      c.sources.push_back(s);
      c.lists.push_back(std::move(list));
    }
  }
  return c;
}

void ExpectSuperedgeRoundTrip(const BipartiteCase& c,
                              const SuperedgeEncodeOptions& opts) {
  auto blob = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, opts);
  SuperedgeGraph decoded;
  ASSERT_TRUE(DecodeSuperedge(blob, c.ni, c.nj, &decoded).ok());
  uint64_t expected_edges = 0;
  for (const auto& l : c.lists) expected_edges += l.size();
  EXPECT_EQ(decoded.NumPositiveEdges(c.ni), expected_edges);
  size_t k = 0;
  for (uint32_t s = 0; s < c.ni; ++s) {
    std::vector<uint32_t> links;
    decoded.LinksOf(s, &links);
    std::vector<uint32_t> expected;
    if (k < c.sources.size() && c.sources[k] == s) {
      expected = c.lists[k];
      ++k;
    }
    EXPECT_EQ(links, expected) << "source " << s;
  }
}

TEST(SuperedgeCodecTest, SparseRoundTripUsesPositive) {
  std::mt19937_64 gen(55);
  for (int trial = 0; trial < 20; ++trial) {
    BipartiteCase c = RandomBipartite(&gen, 0.1);
    auto blob = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, {});
    SuperedgeGraph decoded;
    ASSERT_TRUE(DecodeSuperedge(blob, c.ni, c.nj, &decoded).ok());
    EXPECT_TRUE(decoded.positive);
    ExpectSuperedgeRoundTrip(c, {});
  }
}

TEST(SuperedgeCodecTest, DenseRoundTripUsesNegative) {
  std::mt19937_64 gen(66);
  for (int trial = 0; trial < 20; ++trial) {
    BipartiteCase c = RandomBipartite(&gen, 0.9);
    auto blob = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, {});
    SuperedgeGraph decoded;
    ASSERT_TRUE(DecodeSuperedge(blob, c.ni, c.nj, &decoded).ok());
    EXPECT_FALSE(decoded.positive);
    ExpectSuperedgeRoundTrip(c, {});
  }
}

TEST(SuperedgeCodecTest, MidDensityRoundTrip) {
  std::mt19937_64 gen(77);
  for (int trial = 0; trial < 30; ++trial) {
    BipartiteCase c = RandomBipartite(&gen, 0.5);
    ExpectSuperedgeRoundTrip(c, {});
  }
}

// Superedge blob size follows from the planner's cost model too: the
// polarity bit, the gamma source count, the source codes, one reference
// flag per list and the plan's cost, padded to a byte. A negative graph
// plans over each source's complement list.
TEST(SuperedgeCodecTest, SizeMatchesPlanCost) {
  std::mt19937_64 gen(88);
  for (int trial = 0; trial < 500; ++trial) {
    double density = static_cast<double>(gen() % 100) / 100.0;
    BipartiteCase c = RandomBipartite(&gen, density);
    uint64_t edges = 0;
    for (const auto& l : c.lists) edges += l.size();
    std::vector<uint32_t> sources = c.sources;
    std::vector<std::vector<uint32_t>> lists = c.lists;
    if (uint64_t{c.ni} * c.nj - edges < edges) {
      sources.clear();
      lists.clear();
      size_t k = 0;
      for (uint32_t s = 0; s < c.ni; ++s) {
        bool present = k < c.sources.size() && c.sources[k] == s;
        std::vector<uint32_t> complement;
        for (uint32_t t = 0; t < c.nj; ++t) {
          if (!present || !std::binary_search(c.lists[k].begin(),
                                              c.lists[k].end(), t)) {
            complement.push_back(t);
          }
        }
        if (present) ++k;
        if (!complement.empty()) {
          sources.push_back(s);
          lists.push_back(std::move(complement));
        }
      }
    }
    SuperedgeEncodeOptions options;
    ReferencePlan plan =
        ComputeReferencePlan(lists, c.nj, kSuperedgeReferenceWindow);
    uint64_t bits = 1 + GammaCost(sources.size()) + lists.size() +
                    plan.total_cost_bits;
    for (size_t k = 0; k < sources.size(); ++k) {
      bits += k == 0 ? MinimalBinaryWidth(c.ni)
                     : GammaCost(sources[k] - sources[k - 1] - 1);
    }
    ASSERT_EQ(EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, options).size(),
              (bits + 7) / 8)
        << "trial " << trial;
  }
}

TEST(SuperedgeCodecTest, CompleteBipartiteIsTiny) {
  // Every source points to every target: the negative graph is empty, as
  // in the paper's Figure 3/4 example.
  BipartiteCase c;
  c.ni = 20;
  c.nj = 15;
  for (uint32_t s = 0; s < c.ni; ++s) {
    std::vector<uint32_t> all(c.nj);
    std::iota(all.begin(), all.end(), 0);
    c.sources.push_back(s);
    c.lists.push_back(all);
  }
  auto blob = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, {});
  EXPECT_LT(blob.size(), 8u);  // near-empty negative graph
  ExpectSuperedgeRoundTrip(c, {});
}

TEST(SuperedgeCodecTest, PositiveOnlyAblationStillRoundTrips) {
  std::mt19937_64 gen(88);
  SuperedgeEncodeOptions opts;
  opts.allow_negative = false;
  for (int trial = 0; trial < 10; ++trial) {
    BipartiteCase c = RandomBipartite(&gen, 0.8);
    auto blob = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, opts);
    SuperedgeGraph decoded;
    ASSERT_TRUE(DecodeSuperedge(blob, c.ni, c.nj, &decoded).ok());
    EXPECT_TRUE(decoded.positive);
    ExpectSuperedgeRoundTrip(c, opts);
  }
}

TEST(SuperedgeCodecTest, NegativeBeatsPositiveOnDenseGraphs) {
  std::mt19937_64 gen(99);
  BipartiteCase c = RandomBipartite(&gen, 0.92);
  SuperedgeEncodeOptions pos_only;
  pos_only.allow_negative = false;
  auto with_neg = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, {});
  auto without = EncodeSuperedge(c.sources, c.lists, c.ni, c.nj, pos_only);
  EXPECT_LT(with_neg.size(), without.size());
}

// ---------- Partition / refinement ----------

TEST(PartitionTest, ValidateAcceptsCover) {
  Partition p;
  p.elements = {{0, 2}, {1, 3}};
  EXPECT_TRUE(p.Validate(4).ok());
}

TEST(PartitionTest, ValidateRejectsOverlapAndGaps) {
  Partition overlap;
  overlap.elements = {{0, 1}, {1, 2}};
  EXPECT_FALSE(overlap.Validate(3).ok());
  Partition gap;
  gap.elements = {{0}, {2}};
  EXPECT_FALSE(gap.Validate(3).ok());
  Partition empty_element;
  empty_element.elements = {{0, 1, 2}, {}};
  EXPECT_FALSE(empty_element.Validate(3).ok());
}

TEST(RefinementTest, InitialPartitionGroupsByDomain) {
  GeneratorOptions gopts;
  gopts.num_pages = 2000;
  WebGraph graph = GenerateWebGraph(gopts);
  Partition p0 = InitialDomainPartition(graph);
  ASSERT_TRUE(p0.Validate(graph.num_pages()).ok());
  for (const auto& element : p0.elements) {
    uint32_t d = graph.domain_id(element[0]);
    for (PageId p : element) EXPECT_EQ(graph.domain_id(p), d);
  }
}

TEST(RefinementTest, FinalPartitionIsValidAndDomainPure) {
  GeneratorOptions gopts;
  // Large enough that the biggest domains exceed the split floor.
  gopts.num_pages = 30000;
  WebGraph graph = GenerateWebGraph(gopts);
  RefinementOptions opts;
  RefinementStats stats;
  Partition pf = RefinePartition(graph, opts, &stats);
  ASSERT_TRUE(pf.Validate(graph.num_pages()).ok());
  // Property 2: refinement only splits P0, so domain purity must hold.
  for (const auto& element : pf.elements) {
    uint32_t d = graph.domain_id(element[0]);
    for (PageId p : element) ASSERT_EQ(graph.domain_id(p), d);
  }
  // It must actually refine beyond domains.
  Partition p0 = InitialDomainPartition(graph);
  EXPECT_GT(pf.num_elements(), p0.num_elements());
  EXPECT_GT(stats.url_splits, 0u);
}

TEST(RefinementTest, ElementsSortedByUrl) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  Partition pf = RefinePartition(graph, {}, nullptr);
  for (const auto& element : pf.elements) {
    for (size_t i = 1; i < element.size(); ++i) {
      ASSERT_LE(graph.url(element[i - 1]), graph.url(element[i]));
    }
  }
}

TEST(RefinementTest, DeterministicForSeed) {
  GeneratorOptions gopts;
  gopts.num_pages = 2000;
  WebGraph graph = GenerateWebGraph(gopts);
  Partition a = RefinePartition(graph, {}, nullptr);
  Partition b = RefinePartition(graph, {}, nullptr);
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (size_t e = 0; e < a.num_elements(); ++e) {
    ASSERT_EQ(a.elements[e], b.elements[e]);
  }
}

TEST(RefinementTest, UrlOnlyAblationRuns) {
  GeneratorOptions gopts;
  gopts.num_pages = 2000;
  WebGraph graph = GenerateWebGraph(gopts);
  RefinementOptions opts;
  opts.use_clustered_split = false;
  RefinementStats stats;
  Partition pf = RefinePartition(graph, opts, &stats);
  ASSERT_TRUE(pf.Validate(graph.num_pages()).ok());
  EXPECT_EQ(stats.clustered_splits, 0u);
}

TEST(RefinementTest, LargestFirstPolicyProducesValidPartition) {
  GeneratorOptions gopts;
  gopts.num_pages = 2000;
  WebGraph graph = GenerateWebGraph(gopts);
  RefinementOptions opts;
  opts.split_largest_first = true;
  Partition pf = RefinePartition(graph, opts, nullptr);
  ASSERT_TRUE(pf.Validate(graph.num_pages()).ok());
}

// ---------- Full S-Node representation ----------

class SNodeReprTest : public testing::Test {
 protected:
  static constexpr size_t kPages = 4000;

  static WebGraph& Graph() {
    static WebGraph* graph = [] {
      GeneratorOptions gopts;
      gopts.num_pages = kPages;
      gopts.seed = 13;
      return new WebGraph(GenerateWebGraph(gopts));
    }();
    return *graph;
  }

  static SNodeRepr& Repr() {
    static std::unique_ptr<SNodeRepr> repr = [] {
      auto r = SNodeRepr::Build(Graph(), TempPath("snode"), {});
      WG_CHECK(r.ok());
      return std::move(r).value();
    }();
    return *repr;
  }
};

TEST_F(SNodeReprTest, PreservesAllLinkageInformation) {
  // The paper's core invariant (Section 2): the S-Node representation
  // preserves all linkage information of the original Web graph.
  auto& graph = Graph();
  auto& repr = Repr();
  ASSERT_EQ(repr.num_pages(), graph.num_pages());
  std::vector<PageId> links;
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    links.clear();
    ASSERT_TRUE(repr.GetLinks(p, &links).ok()) << p;
    auto expected = graph.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(std::equal(links.begin(), links.end(), expected.begin())) << p;
  }
}

TEST_F(SNodeReprTest, SupernodeRangesPartitionPages) {
  const auto& sg = Repr().supernode_graph();
  ASSERT_GE(sg.num_supernodes(), 1u);
  EXPECT_EQ(sg.page_start.front(), 0u);
  EXPECT_EQ(sg.page_start.back(), Graph().num_pages());
  for (size_t i = 1; i < sg.page_start.size(); ++i) {
    EXPECT_LT(sg.page_start[i - 1], sg.page_start[i]);
  }
}

TEST_F(SNodeReprTest, DomainIndexMatchesGroundTruth) {
  auto& graph = Graph();
  auto& repr = Repr();
  std::vector<PageId> pages;
  ASSERT_TRUE(repr.PagesInDomain("stanford.edu", &pages).ok());
  std::vector<PageId> expected;
  uint32_t d = graph.FindDomain("stanford.edu");
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    if (graph.domain_id(p) == d) expected.push_back(p);
  }
  EXPECT_EQ(pages, expected);
}

TEST_F(SNodeReprTest, CompressesBetterThanPlainHuffman) {
  // Table 1's headline: S-Node ~5 bits/edge vs Huffman ~15.
  auto huff = HuffmanRepr::Build(Graph());
  EXPECT_LT(Repr().BitsPerEdge(), huff->BitsPerEdge());
}

TEST_F(SNodeReprTest, BufferBudgetIsRespected) {
  auto& repr = Repr();
  repr.ClearCache();
  repr.set_buffer_budget(64 << 10);
  std::vector<PageId> links;
  for (PageId p = 0; p < 2000; p += 7) {
    links.clear();
    ASSERT_TRUE(repr.GetLinks(p, &links).ok());
  }
  EXPECT_LE(repr.resident_memory(),
            repr.resident_memory());  // sanity: no UB
  repr.set_buffer_budget(SNodeBuildOptions().buffer_bytes);
}

TEST_F(SNodeReprTest, TransposeRepresentationMatches) {
  WebGraph t = Graph().Transpose();
  auto repr = SNodeRepr::Build(t, TempPath("snode_t"), {});
  ASSERT_TRUE(repr.ok());
  std::vector<PageId> links;
  for (PageId p = 0; p < t.num_pages(); p += 13) {
    links.clear();
    ASSERT_TRUE(repr.value()->GetLinks(p, &links).ok());
    auto expected = t.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(std::equal(links.begin(), links.end(), expected.begin()));
  }
}

// Once a page's section is assembled, re-reading the page loads nothing.
// (A second lone probe from a fresh cursor re-reads its section to
// assemble it, by design: the first probe cached nothing.)
TEST(SNodeLoadLogTest, RecordsLoadsAndDistinctGraphCounts) {
  GeneratorOptions gopts;
  gopts.num_pages = 1500;
  WebGraph graph = GenerateWebGraph(gopts);
  auto repr = SNodeRepr::Build(graph, TempPath("snode_log"), {});
  ASSERT_TRUE(repr.ok());
  std::vector<PageId> links;
  ASSERT_TRUE(repr.value()->GetLinks(42, &links).ok());
  EXPECT_GE(repr.value()->stats().graphs_loaded, 1u);
  ASSERT_TRUE(repr.value()->GetLinks(42, &links).ok());
  EXPECT_EQ(repr.value()->cold_stats().assembles, 1u);
  const uint64_t assembled = repr.value()->stats().graphs_loaded;
  links.clear();
  ASSERT_TRUE(repr.value()->GetLinks(42, &links).ok());
  EXPECT_EQ(repr.value()->stats().graphs_loaded, assembled);
  auto expected = graph.OutLinks(42);
  EXPECT_EQ(links, std::vector<PageId>(expected.begin(), expected.end()));
}

// Blobs in supernode s's section: its intranode graph plus one superedge
// graph per outgoing superedge.
uint64_t SectionBlobCount(const SupernodeGraph& sg, uint32_t s) {
  return sg.FirstBlob(s + 1) - sg.FirstBlob(s);
}

// Reads every page of sections s and s+1 in layout order through one
// cursor: a lone probe of s's first page, then supernode assembly.
void SweepTwoSections(SNodeRepr* repr, uint32_t s) {
  const SupernodeGraph& sg = repr->supernode_graph();
  std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
  for (PageId nid = sg.page_start[s]; nid < sg.page_start[s + 2]; ++nid) {
    LinkView view;
    ASSERT_TRUE(cursor->Links(repr->PageInNaturalOrder(nid), &view).ok());
  }
}

// Figure 11/12's "graphs loaded" accounting must see every blob read from
// the store, including those supernode assembly decodes into scratch
// without caching them.
TEST(SNodeLoadLogTest, SweepLogsEveryBlobItReads) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  auto repr = SNodeRepr::Build(graph, TempPath("snode_log_sweep"), {});
  ASSERT_TRUE(repr.ok());
  const SupernodeGraph& sg = repr.value()->supernode_graph();
  ASSERT_GE(sg.num_supernodes(), 2u);

  SweepTwoSections(repr.value().get(), 0);
  uint64_t read = SectionBlobCount(sg, 0) + SectionBlobCount(sg, 1);
  EXPECT_EQ(repr.value()->stats().graphs_loaded, read);
  EXPECT_EQ(repr.value()->cold_stats().demand_blobs, read);
}

// One cache miss per blob a demand read loads from the store -- the same
// event as wg_cold_blobs_total{source="demand"} -- whether the blob came
// in through a lone probe's section read or a sweep's supernode assembly.
TEST(SNodeColdAccountingTest, CacheMissesCountEveryDemandLoad) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  auto built = SNodeRepr::Build(graph, TempPath("snode_misses"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  const SupernodeGraph& sg = repr->supernode_graph();
  ASSERT_GE(sg.num_supernodes(), 2u);
  struct Loads {
    uint64_t misses, graphs, demand;
  };
  auto now = [repr] {
    return Loads{repr->stats().cache_misses, repr->stats().graphs_loaded,
                 repr->cold_stats().demand_blobs};
  };
  auto expect_loaded = [&now](const Loads& before, uint64_t blobs) {
    Loads after = now();
    EXPECT_EQ(after.graphs - before.graphs, blobs);
    EXPECT_EQ(after.misses - before.misses, blobs);
    EXPECT_EQ(after.demand - before.demand, blobs);
  };

  // A cold lone probe reads its whole section.
  Loads before = now();
  {
    std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
    LinkView view;
    ASSERT_TRUE(
        cursor->Links(repr->PageInNaturalOrder(sg.page_start[0]), &view).ok());
  }
  expect_loaded(before, SectionBlobCount(sg, 0));

  // A cold layout-order sweep over two sections.
  repr->ClearCache();
  before = now();
  SweepTwoSections(repr, 0);
  expect_loaded(before, SectionBlobCount(sg, 0) + SectionBlobCount(sg, 1));
}

// Reads page `p` through a fresh cursor (a lone probe) and checks it
// against the graph; returns whether the view came pinned out of the cache.
bool ProbeFresh(SNodeRepr* repr, const WebGraph& graph, PageId p) {
  std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
  LinkView view;
  EXPECT_TRUE(cursor->Links(p, &view).ok()) << p;
  auto expected = graph.OutLinks(p);
  EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin(),
                         expected.end()))
      << p;
  return view.pinned();
}

// Mean bytes of an assembled section: pages + 1 offsets and one target per
// edge, 4 bytes each.
double MeanAssembledBytes(const SNodeRepr& repr) {
  double sections = repr.supernode_graph().num_supernodes();
  return 4.0 * (repr.num_pages() + sections + repr.num_edges()) / sections;
}

// A cold lone probe decodes its section into per-thread scratch: one store
// read, every blob of the section charged as a demand load, and nothing
// published into the cache.
TEST(SNodeScratchProbeTest, ColdLoneProbeReadsOnceAndCachesNothing) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  auto built = SNodeRepr::Build(graph, TempPath("snode_probe"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  const SupernodeGraph& sg = repr->supernode_graph();
  uint32_t s = static_cast<uint32_t>(sg.num_supernodes() / 2);
  const ReprStats& stats = repr->stats();
  uint64_t reads = stats.disk_reads;
  uint64_t graphs = stats.graphs_loaded;
  uint64_t misses = stats.cache_misses;
  uint64_t demand = repr->cold_stats().demand_blobs;

  EXPECT_FALSE(
      ProbeFresh(repr, graph, repr->PageInNaturalOrder(sg.page_start[s])));
  uint64_t blobs = SectionBlobCount(sg, s);
  EXPECT_EQ(stats.disk_reads - reads, 1u);
  EXPECT_EQ(stats.graphs_loaded - graphs, blobs);
  EXPECT_EQ(stats.cache_misses - misses, blobs);
  EXPECT_EQ(repr->cold_stats().demand_blobs - demand, blobs);
  EXPECT_EQ(repr->buffer_bytes_used(), 0u);
  EXPECT_EQ(repr->cold_stats().assembles, 0u);
}

// Probing a section again while its assembled block would still be cached
// assembles it; the section's later probes are cache hits that read
// nothing from the store.
TEST(SNodeScratchProbeTest, SecondProbeWithinReachAssembles) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  SNodeBuildOptions opts;
  opts.buffer_bytes = 64 << 20;  // holds every assembled section
  auto built = SNodeRepr::Build(graph, TempPath("snode_reach"), opts);
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  const SupernodeGraph& sg = repr->supernode_graph();
  uint32_t s = static_cast<uint32_t>(sg.num_supernodes() / 2);
  PageId p = repr->PageInNaturalOrder(sg.page_start[s]);

  EXPECT_FALSE(ProbeFresh(repr, graph, p));
  EXPECT_EQ(repr->cold_stats().assembles, 0u);
  EXPECT_TRUE(ProbeFresh(repr, graph, p));
  EXPECT_EQ(repr->cold_stats().assembles, 1u);

  uint64_t reads = repr->stats().disk_reads;
  uint64_t graphs = repr->stats().graphs_loaded;
  uint64_t hits = repr->stats().cache_hits;
  for (PageId nid = sg.page_start[s]; nid < sg.page_start[s + 1]; ++nid) {
    EXPECT_TRUE(ProbeFresh(repr, graph, repr->PageInNaturalOrder(nid)));
  }
  EXPECT_EQ(repr->stats().disk_reads, reads);
  EXPECT_EQ(repr->stats().graphs_loaded, graphs);
  EXPECT_EQ(repr->stats().cache_hits - hits,
            sg.page_start[s + 1] - sg.page_start[s]);
  EXPECT_EQ(repr->cold_stats().assembles, 1u);
}

// A cache smaller than one mean assembled section has no reach: repeated
// probes keep decoding into scratch, and never assemble or cache anything.
TEST(SNodeScratchProbeTest, CacheSmallerThanOneSectionNeverAssembles) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  auto built = SNodeRepr::Build(graph, TempPath("snode_noreach"), {});
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  repr->set_buffer_budget(static_cast<size_t>(MeanAssembledBytes(*repr)) / 2);
  const SupernodeGraph& sg = repr->supernode_graph();
  uint32_t s = static_cast<uint32_t>(sg.num_supernodes() / 2);
  PageId first = repr->PageInNaturalOrder(sg.page_start[s]);
  PageId last = repr->PageInNaturalOrder(sg.page_start[s + 1] - 1);

  uint64_t reads = repr->stats().disk_reads;
  constexpr int kProbes = 8;
  for (int i = 0; i < kProbes; ++i) {
    EXPECT_FALSE(ProbeFresh(repr, graph, i % 2 == 0 ? first : last));
  }
  EXPECT_EQ(repr->stats().disk_reads - reads, static_cast<uint64_t>(kProbes));
  EXPECT_EQ(repr->cold_stats().assembles, 0u);
  EXPECT_EQ(repr->buffer_bytes_used(), 0u);
}

// At max_file_size 4096 a build spreads over many packs, and each pack
// holds whole sections back to back from offset 0: no section spans two
// packs, and a section larger than 4096 bytes has a pack of its own.
TEST(SNodeStoreLayoutTest, NoSectionSpansTwoPacks) {
  GeneratorOptions gopts;
  gopts.num_pages = 20000;
  WebGraph graph = GenerateWebGraph(gopts);
  SNodeBuildOptions opts;
  opts.store.max_file_size = 4096;
  auto built = SNodeRepr::Build(graph, TempPath("snode_layout"), opts);
  ASSERT_TRUE(built.ok());
  const GraphStore& store = built.value()->store();
  ASSERT_GE(store.num_files(), 4u);
  std::vector<uint64_t> file_end(store.num_files(), 0);
  std::vector<uint32_t> sections_in(store.num_files(), 0);
  size_t oversized = 0;
  for (uint32_t s = 0; s < store.num_sections(); ++s) {
    const GraphStore::Section& section = store.section(s);
    ASSERT_LT(section.file_index, store.num_files());
    // Sections in layout order fill their pack back to back.
    EXPECT_EQ(section.offset, file_end[section.file_index]) << s;
    file_end[section.file_index] += section.length;
    ++sections_in[section.file_index];
    if (s > 0) {
      EXPECT_GE(section.file_index, store.section(s - 1).file_index);
    }
  }
  for (uint32_t f = 0; f < store.num_files(); ++f) {
    auto file = RandomAccessFile::OpenForRead(store.FilePath(f));
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file.value()->size(), file_end[f]) << "pack " << f;
    if (file_end[f] > 4096) {
      ++oversized;
      EXPECT_EQ(sections_in[f], 1u) << "pack " << f;
    }
  }
  EXPECT_GT(oversized, 0u) << "no section outgrew max_file_size";
}

// A tiny max_file_size spreads the store over many packs, each section in
// one. Every read path must answer like the in-memory graph, really read
// the store, and leak no pins; a lone probe costs exactly one seek.
TEST(SNodeReadFallbackTest, QuarantinedFilesServeThroughPread) {
  GeneratorOptions gopts;
  gopts.num_pages = 3000;
  WebGraph graph = GenerateWebGraph(gopts);
  SNodeBuildOptions opts;
  opts.store.max_file_size = 4096;
  auto built = SNodeRepr::Build(graph, TempPath("snode_fallback"), opts);
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  const GraphStore& store = repr->store();
  ASSERT_GE(store.num_files(), 4u);

  // A section in a later pack than the first.
  const SupernodeGraph& sg = repr->supernode_graph();
  uint32_t late = UINT32_MAX;
  for (uint32_t s = 0; s < sg.num_supernodes() && late == UINT32_MAX; ++s) {
    if (store.section(s).file_index > 0) late = s;
  }
  ASSERT_NE(late, UINT32_MAX);

  auto links_of = [&graph](PageId p) {
    auto links = graph.OutLinks(p);
    return std::vector<PageId>(links.begin(), links.end());
  };
  auto probe = [&](uint32_t s) {
    PageId p = repr->PageInNaturalOrder(sg.page_start[s]);
    std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
    LinkView view;
    ASSERT_TRUE(cursor->Links(p, &view).ok());
    EXPECT_EQ(view.ToVector(), links_of(p)) << p;
  };
  // Runs `read` from a cold cache; it must read the store.
  auto expect_pread = [&](const char* what, const std::function<void()>& read) {
    repr->ClearCache();
    uint64_t before = repr->stats().disk_reads;
    read();
    EXPECT_GT(repr->stats().disk_reads, before) << what;
    EXPECT_EQ(repr->PinnedCacheEntries(), 0u) << what;
  };

  // The section's lone probe is the store's first read: one pread of one
  // section in one pack, so exactly one seek.
  const uint64_t seeks = store.seek_ops();
  expect_pread("lone probe", [&] { probe(late); });
  EXPECT_EQ(store.seek_ops() - seeks, 1u);
  expect_pread("layout sweep", [&] {
    std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
    for (size_t i = 0; i < graph.num_pages(); ++i) {
      PageId p = repr->PageInNaturalOrder(i);
      LinkView view;
      ASSERT_TRUE(cursor->Links(p, &view).ok());
      ASSERT_EQ(view.ToVector(), links_of(p)) << p;
    }
  });
  std::vector<PageId> all(graph.num_pages());
  std::iota(all.begin(), all.end(), 0);
  std::vector<PageId> sparse;
  for (PageId p = 0; p < graph.num_pages(); p += 97) sparse.push_back(p);
  for (const std::vector<PageId>* targets : {&all, &sparse}) {
    expect_pread(targets == &all ? "dense pushdown" : "sparse pushdown", [&] {
      ASSERT_TRUE(repr->VisitLinksInto(
                          all, *targets,
                          [&](PageId p, const std::vector<PageId>& links) {
                            std::vector<PageId> want;
                            for (PageId q : links_of(p)) {
                              if (std::binary_search(targets->begin(),
                                                     targets->end(), q)) {
                                want.push_back(q);
                              }
                            }
                            EXPECT_EQ(links, want) << p;
                          })
                      .ok());
    });
  }
}

// ---------- Resident state shape ----------

// The resident state and store of a saved repr, parsed the way Open
// parses them, for FromParts to attach after a test edits the state.
struct ParsedMeta {
  SNodeResidentState state;
  std::unique_ptr<GraphStore> store;
};

ParsedMeta ParseMeta(const std::string& base) {
  static const char kMetaMagic[4] = {'S', 'N', 'M', '5'};
  auto payload = ReadFramedFile(base + ".meta", kMetaMagic);
  WG_CHECK(payload.ok());
  SerialCursor cursor(payload.value());
  auto state = SNodeResidentState::Parse(&cursor);
  WG_CHECK(state.ok());
  auto store = GraphStore::OpenExisting(base, &cursor);
  WG_CHECK(store.ok());
  return {std::move(state).value(), std::move(store).value()};
}

class SNodeResidentShapeTest : public testing::Test {
 protected:
  static const WebGraph& Graph() {
    static WebGraph* graph = [] {
      GeneratorOptions gopts;
      gopts.num_pages = 20000;
      gopts.seed = 41;
      return new WebGraph(GenerateWebGraph(gopts));
    }();
    return *graph;
  }

  // A saved store of Graph().
  static const std::string& Base() {
    static std::string* base = [] {
      auto* path = new std::string(TempPath("snode_shape"));
      auto built = SNodeRepr::Build(Graph(), *path, {});
      WG_CHECK(built.ok() && built.value()->SaveMeta().ok());
      return path;
    }();
    return *base;
  }
};

// A state whose page ranges still ascend but disagree with the blobs: the
// first page of section 1 is moved into section 0. Attaching succeeds;
// probing the moved page must fail with Corruption and quarantine only
// section 0 -- not read past section 0's intranode graph -- while pages
// of sections that reach neither moved range keep answering correctly.
TEST_F(SNodeResidentShapeTest, PageRangeDisagreeingWithBlobsIsCorruption) {
  ParsedMeta meta = ParseMeta(Base());
  SupernodeGraph& sg = meta.state.supernodes;
  ASSERT_GE(sg.num_supernodes(), 3u);
  ASSERT_LT(sg.page_start[1] + 1, sg.page_start[2]);
  const PageId moved_id = sg.page_start[1];
  ++sg.page_start[1];
  // A section other than 0 and 1 with no superedge into either.
  uint32_t other = UINT32_MAX;
  for (uint32_t s = 2; s < sg.num_supernodes() && other == UINT32_MAX; ++s) {
    bool reaches = false;
    for (uint32_t e = sg.offsets[s]; e < sg.offsets[s + 1]; ++e) {
      reaches = reaches || sg.targets[e] <= 1;
    }
    if (!reaches) other = s;
  }
  ASSERT_NE(other, UINT32_MAX);
  const PageId other_id = sg.page_start[other];

  auto attached = SNodeRepr::FromParts(std::move(meta.state),
                                       std::move(meta.store), Base(), {});
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  SNodeRepr& repr = *attached.value();

  std::unique_ptr<AdjacencyCursor> cursor = repr.NewCursor();
  LinkView view;
  Status probe = cursor->Links(repr.PageInNaturalOrder(moved_id), &view);
  EXPECT_EQ(probe.code(), StatusCode::kCorruption) << probe.ToString();
  EXPECT_TRUE(repr.SectionQuarantined(0));
  EXPECT_EQ(repr.QuarantinedSectionCount(), 1u);

  const PageId page = repr.PageInNaturalOrder(other_id);
  cursor = repr.NewCursor();
  ASSERT_TRUE(cursor->Links(page, &view).ok());
  auto expected = Graph().OutLinks(page);
  EXPECT_EQ(view.ToVector(),
            std::vector<PageId>(expected.begin(), expected.end()));
  EXPECT_EQ(repr.QuarantinedSectionCount(), 1u);
}

// Every shape violation of the resident state fails the attach.
TEST_F(SNodeResidentShapeTest, ShapeViolationsFailFromParts) {
  struct Case {
    const char* name;
    std::function<void(SNodeResidentState*)> mutate;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"a page numbered twice",
       [](SNodeResidentState* st) {
         st->new_of_orig[1] = st->new_of_orig[0];
       },
       "not a permutation"},
      {"a page numbered past the page count",
       [](SNodeResidentState* st) {
         st->new_of_orig[0] = static_cast<PageId>(st->new_of_orig.size());
       },
       "not a permutation"},
      {"resident arrays of different sizes",
       [](SNodeResidentState* st) {
         st->supernodes.page_start.pop_back();
       },
       "disagree in size"},
      {"page ranges start past 0",
       [](SNodeResidentState* st) {
         st->supernodes.page_start[0] = 1;
       },
       "page ranges"},
      {"page ranges decrease",
       [](SNodeResidentState* st) {
         st->supernodes.page_start[1] = st->supernodes.page_start[2] + 1;
       },
       "page ranges"},
      {"page ranges stop short of the page count",
       [](SNodeResidentState* st) {
         --st->supernodes.page_start.back();
       },
       "page ranges"},
      {"superedge offsets decrease",
       [](SNodeResidentState* st) {
         st->supernodes.offsets[1] = st->supernodes.offsets[2] + 1;
       },
       "superedge offsets"},
      {"superedge offsets end past the superedges",
       [](SNodeResidentState* st) {
         ++st->supernodes.offsets.back();
       },
       "superedge offsets"},
      {"superedge target past the last supernode",
       [](SNodeResidentState* st) {
         st->supernodes.targets[0] =
             static_cast<uint32_t>(st->supernodes.num_supernodes());
       },
       "superedge target"},
      {"domain entry past the last supernode",
       [](SNodeResidentState* st) {
         st->supernodes.domain_supernodes.begin()->second.push_back(
             st->supernodes.num_supernodes());
       },
       "domain entry"},
      {"a store section holds a different graph count than the layout",
       [](SNodeResidentState* st) {
         // One more superedge of the last supernode: the layout now needs
         // one graph more in the last section than the store holds.
         st->supernodes.targets.push_back(0);
         ++st->supernodes.offsets.back();
       },
       "lays out"},
      {"the store holds a different section count than the layout",
       [](SNodeResidentState* st) {
         // The last supernode's pages fold into the one before it.
         SupernodeGraph& sg = st->supernodes;
         const uint32_t last = sg.num_supernodes() - 1;
         sg.page_start.erase(sg.page_start.begin() + last);
         sg.offsets.erase(sg.offsets.begin() + last);
         sg.offsets.back() = static_cast<uint32_t>(sg.targets.size());
         for (uint32_t& t : sg.targets) t = std::min(t, last - 1);
         for (auto& [domain, list] : sg.domain_supernodes) {
           for (uint32_t& s : list) s = std::min(s, last - 1);
         }
       },
       "sections"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ParsedMeta meta = ParseMeta(Base());
    c.mutate(&meta.state);
    auto attached = SNodeRepr::FromParts(std::move(meta.state),
                                         std::move(meta.store), Base(), {});
    ASSERT_FALSE(attached.ok());
    EXPECT_EQ(attached.status().code(), StatusCode::kCorruption);
    EXPECT_NE(attached.status().ToString().find(c.message),
              std::string::npos)
        << attached.status().ToString();
  }
  // The unedited state attaches.
  ParsedMeta meta = ParseMeta(Base());
  EXPECT_TRUE(SNodeRepr::FromParts(std::move(meta.state),
                                   std::move(meta.store), Base(), {})
                  .ok());
}

TEST(SNodeSmallCacheTest, CorrectUnderHeavyEviction) {
  GeneratorOptions gopts;
  gopts.num_pages = 1500;
  WebGraph graph = GenerateWebGraph(gopts);
  SNodeBuildOptions opts;
  opts.buffer_bytes = 8 << 10;  // force constant eviction
  auto repr = SNodeRepr::Build(graph, TempPath("snode_small"), opts);
  ASSERT_TRUE(repr.ok());
  std::vector<PageId> links;
  for (PageId p = 0; p < graph.num_pages(); p += 3) {
    links.clear();
    ASSERT_TRUE(repr.value()->GetLinks(p, &links).ok());
    auto expected = graph.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(std::equal(links.begin(), links.end(), expected.begin()));
  }
  EXPECT_GT(repr.value()->stats().cache_misses, 0u);
}

TEST(SNodeAblationTest, ReferenceEncodingShrinksStore) {
  GeneratorOptions gopts;
  gopts.num_pages = 4000;
  WebGraph graph = GenerateWebGraph(gopts);
  SNodeBuildOptions with_ref;
  SNodeBuildOptions no_ref;
  no_ref.intranode.use_reference_encoding = false;
  no_ref.superedge.use_reference_encoding = false;
  auto a = SNodeRepr::Build(graph, TempPath("snode_ref"), with_ref);
  auto b = SNodeRepr::Build(graph, TempPath("snode_noref"), no_ref);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a.value()->store().total_bytes(),
            b.value()->store().total_bytes());
}

}  // namespace
}  // namespace wg
