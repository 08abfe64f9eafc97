// Parallel S-Node construction: the build must be a pure performance knob.
// threads=1 and threads=8 must produce byte-identical store files, an
// identical .meta, and identical RefinementStats counters; and every
// counter reachable from Build's worker threads (and from concurrent
// readers afterwards) must be on the relaxed-atomic path, which the TSan
// preset verifies (this binary carries the `concurrency` ctest label; see
// tests/CMakeLists.txt).
//
// PagerStats audit note: SNodeRepr::Build never touches a Pager (the
// buffer pool belongs to the relational baseline), so the only stats
// reachable from Build's encode workers are ReprStats::graphs_encoded /
// encoded_bytes -- obs::Counter, exercised at threads=4 below.

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "snode/refinement.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "util/parallel.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

// Reads a whole file; empty optional-style flag via second member.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

const WebGraph& SharedGraph() {
  static WebGraph* graph = [] {
    GeneratorOptions opts;
    opts.num_pages = 9000;
    opts.seed = 29;
    return new WebGraph(GenerateWebGraph(opts));
  }();
  return *graph;
}

// Force clustered splits into the run so the parallel k-means path is
// actually exercised at this graph size: cap URL-split depth at one path
// level so elements exhaust it while still above the split floor.
SNodeBuildOptions BuildOptions(int threads) {
  SNodeBuildOptions options;
  options.threads = threads;
  options.refinement.min_split_size = 256;
  options.refinement.min_group_size = 64;
  options.refinement.url_split_max_levels = 1;
  return options;
}

TEST(ParallelBuildTest, StoreFilesAreByteIdenticalAcrossThreadCounts) {
  const WebGraph& graph = SharedGraph();
  std::string base1 = TempPath("serial");
  std::string base8 = TempPath("parallel");

  RefinementStats stats1, stats8;
  auto repr1 = SNodeRepr::Build(graph, base1, BuildOptions(1), &stats1);
  auto repr8 = SNodeRepr::Build(graph, base8, BuildOptions(8), &stats8);
  ASSERT_TRUE(repr1.ok());
  ASSERT_TRUE(repr8.ok());
  ASSERT_TRUE(repr1.value()->SaveMeta().ok());
  ASSERT_TRUE(repr8.value()->SaveMeta().ok());

  // Identical refinement evolution, not merely an identical-size result.
  EXPECT_EQ(stats1.iterations, stats8.iterations);
  EXPECT_EQ(stats1.passes, stats8.passes);
  EXPECT_EQ(stats1.url_splits, stats8.url_splits);
  EXPECT_EQ(stats1.clustered_splits, stats8.clustered_splits);
  EXPECT_EQ(stats1.clustered_aborts, stats8.clustered_aborts);
  EXPECT_EQ(stats1.final_elements, stats8.final_elements);
  EXPECT_GT(stats8.clustered_splits + stats8.clustered_aborts, 0u)
      << "workload never reached the clustered-split path";

  // Byte-identical store files, file by file.
  ASSERT_EQ(repr1.value()->store().num_files(),
            repr8.value()->store().num_files());
  ASSERT_GE(repr1.value()->store().num_files(), 1u);
  for (size_t f = 0; f < repr1.value()->store().num_files(); ++f) {
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), ".%03zu", f);
    std::string bytes1, bytes8;
    ASSERT_TRUE(ReadFile(base1 + suffix, &bytes1));
    ASSERT_TRUE(ReadFile(base8 + suffix, &bytes8));
    ASSERT_FALSE(bytes1.empty());
    EXPECT_EQ(bytes1, bytes8) << "store file " << f << " differs";
  }

  // The resident metadata (permutations, supernode graph, directory) is
  // also thread-count independent.
  std::string meta1, meta8;
  ASSERT_TRUE(ReadFile(base1 + ".meta", &meta1));
  ASSERT_TRUE(ReadFile(base8 + ".meta", &meta8));
  EXPECT_EQ(meta1, meta8);
}

TEST(ParallelBuildTest, ParallelBuildAnswersMatchGroundTruth) {
  const WebGraph& graph = SharedGraph();
  auto repr = SNodeRepr::Build(graph, TempPath("answers"), BuildOptions(8));
  ASSERT_TRUE(repr.ok());
  std::vector<PageId> links;
  for (PageId p = 0; p < graph.num_pages(); p += 17) {
    links.clear();
    ASSERT_TRUE(repr.value()->GetLinks(p, &links).ok());
    auto expected = graph.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << p;
  }
}

TEST(ParallelBuildTest, RefinementAloneIsThreadCountInvariant) {
  const WebGraph& graph = SharedGraph();
  RefinementOptions serial;
  serial.min_split_size = 256;
  serial.min_group_size = 64;
  serial.threads = 1;
  RefinementOptions parallel = serial;
  parallel.threads = 8;
  Partition a = RefinePartition(graph, serial, nullptr);
  Partition b = RefinePartition(graph, parallel, nullptr);
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (size_t e = 0; e < a.num_elements(); ++e) {
    ASSERT_EQ(a.elements[e], b.elements[e]) << "element " << e;
  }
}

// Regression for the stats-accounting satellite: the build-side ReprStats
// counters are bumped concurrently by encode workers; under WG_TSAN this
// test fails if any of them regresses to a plain integer.
TEST(ParallelBuildTest, EncodeWorkersBumpAtomicBuildCounters) {
  const WebGraph& graph = SharedGraph();
  auto repr = SNodeRepr::Build(graph, TempPath("counters"), BuildOptions(4));
  ASSERT_TRUE(repr.ok());
  const ReprStats& stats = repr.value()->stats();
  // intranode graphs (one per supernode) + superedge graphs, all counted.
  uint64_t expected_graphs =
      repr.value()->supernode_graph().num_supernodes() +
      repr.value()->supernode_graph().num_superedges();
  EXPECT_EQ(stats.graphs_encoded, expected_graphs);
  // Every blob's bytes were counted exactly once.
  EXPECT_EQ(stats.encoded_bytes, repr.value()->store().total_bytes());
}

// Read-path counters stay racy-free when a parallel-built representation
// serves many threads (the PR 1 atomic-ReprStats path, re-covered here
// because Build now also writes them from workers).
TEST(ParallelBuildTest, ConcurrentReadsAfterParallelBuildKeepStatsSane) {
  const WebGraph& graph = SharedGraph();
  auto built = SNodeRepr::Build(graph, TempPath("readers"), BuildOptions(4));
  ASSERT_TRUE(built.ok());
  SNodeRepr* repr = built.value().get();
  constexpr int kThreads = 4;
  constexpr PageId kPerThread = 300;
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([repr, t] {
      std::vector<PageId> links;
      for (PageId p = 0; p < kPerThread; ++p) {
        links.clear();
        ASSERT_TRUE(repr->GetLinks(t * kPerThread + p, &links).ok());
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_GE(repr->stats().adjacency_requests,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// The executor itself under contention: all indices run exactly once even
// when every worker steals from one overloaded slot.
TEST(ParallelExecutorConcurrencyTest, SkewedLoadIsStolenExactlyOnce) {
  ParallelExecutor executor(8);
  constexpr size_t kN = 20000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  executor.ParallelFor(0, kN, [&](size_t i) {
    if (i < 32) {
      // A few heavy items at the front of the range force stealing.
      volatile uint64_t sink = 0;
      for (int spin = 0; spin < 200000; ++spin) sink = sink + spin;
    }
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace wg
