// Out-of-core build: the streaming pipeline must be a pure residency
// knob. BuildStreaming over any EdgeSource must produce store files and a
// .meta byte-identical to SNodeRepr::Build over the materialized WebGraph
// of the same source, at every memory budget (tiny budgets force the
// initial-partition sort to spill and merge runs) and every thread count.
// This binary carries the `concurrency` ctest label so the spill-read
// paths (SpillLog see-through reads, Borrow from worker threads) run
// under the TSan preset too.

#include <cstdio>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "graph/edge_source.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "snode/snode_repr.h"
#include "snode/streaming_build.h"
#include "storage/file.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using test::TempPath;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

// Large enough that the tiny-budget external sort must spill several runs
// (the sort buffer floor is 1 MiB; ~20k URL records exceed it).
GeneratorOptions CrawlOptions() {
  GeneratorOptions opts;
  opts.num_pages = 20000;
  opts.seed = 31;
  return opts;
}

const WebGraph& SharedGraph() {
  static WebGraph* graph = [] {
    return new WebGraph(GenerateWebGraph(CrawlOptions()));
  }();
  return *graph;
}

// Same knobs as parallel_build_test: force the clustered-split path into
// the run at this graph size.
SNodeBuildOptions BuildOptions(int threads) {
  SNodeBuildOptions options;
  options.threads = threads;
  options.refinement.min_split_size = 256;
  options.refinement.min_group_size = 64;
  options.refinement.url_split_max_levels = 1;
  return options;
}

void ExpectSameGraph(const WebGraph& a, const WebGraph& b) {
  ASSERT_EQ(a.num_pages(), b.num_pages());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_hosts(), b.num_hosts());
  ASSERT_EQ(a.num_domains(), b.num_domains());
  for (size_t d = 0; d < a.num_domains(); ++d) {
    ASSERT_EQ(a.domain_name(d), b.domain_name(d)) << "domain " << d;
  }
  for (size_t h = 0; h < a.num_hosts(); ++h) {
    ASSERT_EQ(a.host_name(h), b.host_name(h)) << "host " << h;
    ASSERT_EQ(a.host_domain(h), b.host_domain(h)) << "host " << h;
  }
  for (PageId p = 0; p < a.num_pages(); ++p) {
    ASSERT_EQ(a.url(p), b.url(p)) << "page " << p;
    ASSERT_EQ(a.host_id(p), b.host_id(p)) << "page " << p;
    auto la = a.OutLinks(p);
    auto lb = b.OutLinks(p);
    ASSERT_EQ(la.size(), lb.size()) << "page " << p;
    ASSERT_TRUE(std::equal(la.begin(), la.end(), lb.begin())) << "page " << p;
  }
}

// The generator's streaming form replays the exact same RNG draw
// sequence: draining it through GraphBuilderSink reproduces
// GenerateWebGraph page for page and link for link.
TEST(StreamingBuildTest, GeneratorEdgeSourceMatchesInMemoryGenerator) {
  GeneratorEdgeSource source(CrawlOptions(), TempPath("gen_scratch"));
  GraphBuilderSink sink;
  ASSERT_TRUE(source.Drain(&sink).ok());
  WebGraph streamed = sink.TakeGraph();
  ExpectSameGraph(SharedGraph(), streamed);
}

// A WGG1 file drained in one sequential pass equals the same file loaded
// wholesale.
TEST(StreamingBuildTest, FileEdgeSourceMatchesLoadWebGraph) {
  std::string path = TempPath("crawl.wgg");
  ASSERT_TRUE(SaveWebGraph(SharedGraph(), path).ok());
  FileEdgeSource source(path);
  GraphBuilderSink sink;
  ASSERT_TRUE(source.Drain(&sink).ok());
  WebGraph streamed = sink.TakeGraph();
  ExpectSameGraph(SharedGraph(), streamed);
}

// The drain verifies the frame checksum before delivering Finish: a
// flipped payload byte fails the whole drain instead of poisoning the
// build downstream.
TEST(StreamingBuildTest, FileEdgeSourceDetectsCorruption) {
  std::string path = TempPath("corrupt.wgg");
  ASSERT_TRUE(SaveWebGraph(SharedGraph(), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFile(path, &bytes));
  bytes[bytes.size() / 2] ^= 0x40;  // deep in the payload
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  FileEdgeSource source(path);
  GraphBuilderSink sink;
  Status st = source.Drain(&sink);
  EXPECT_FALSE(st.ok());
}

TEST(StreamingBuildTest, FileEdgeSourceDetectsTruncation) {
  std::string path = TempPath("trunc.wgg");
  ASSERT_TRUE(SaveWebGraph(SharedGraph(), path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFile(path, &bytes));
  bytes.resize(bytes.size() - 7);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  FileEdgeSource source(path);
  GraphBuilderSink sink;
  EXPECT_FALSE(source.Drain(&sink).ok());
}

struct BudgetCase {
  const char* name;
  size_t total_bytes;
  int threads;
  bool expect_sort_spill;
};

// The headline contract: streaming builds are byte-identical to the
// in-RAM build across (budget, threads), and the tiny budget really
// exercises the spill-and-merge path rather than degenerating to an
// in-memory sort.
TEST(StreamingBuildTest, ByteIdenticalToInRamBuildAcrossBudgetsAndThreads) {
  const WebGraph& graph = SharedGraph();
  std::string ref_base = TempPath("ref");
  RefinementStats ref_stats;
  auto ref = SNodeRepr::Build(graph, ref_base, BuildOptions(1), &ref_stats);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref.value()->SaveMeta().ok());
  std::string ref_meta;
  ASSERT_TRUE(ReadFile(ref_base + ".meta", &ref_meta));

  const BudgetCase kCases[] = {
      {"tiny_serial", size_t{1} << 20, 1, true},
      {"tiny_parallel", size_t{1} << 20, 8, true},
      {"medium", size_t{32} << 20, 4, false},
      {"default_serial", 0, 1, false},
      {"default_parallel", 0, 8, false},
  };
  for (const BudgetCase& c : kCases) {
    SCOPED_TRACE(c.name);
    std::string base = TempPath(c.name);
    BuildMemoryBudget budget;
    budget.total_bytes = c.total_bytes;
    GeneratorEdgeSource source(CrawlOptions(),
                               TempPath(std::string(c.name) + "_scratch"));
    RefinementStats stats;
    StreamingBuildReport report;
    auto repr = BuildStreaming(&source, base, BuildOptions(c.threads), budget,
                               &stats, &report);
    ASSERT_TRUE(repr.ok()) << repr.status().ToString();
    ASSERT_TRUE(repr.value()->SaveMeta().ok());

    // Identical refinement evolution, not merely identical output sizes.
    EXPECT_EQ(stats.iterations, ref_stats.iterations);
    EXPECT_EQ(stats.passes, ref_stats.passes);
    EXPECT_EQ(stats.url_splits, ref_stats.url_splits);
    EXPECT_EQ(stats.clustered_splits, ref_stats.clustered_splits);
    EXPECT_EQ(stats.clustered_aborts, ref_stats.clustered_aborts);
    EXPECT_EQ(stats.final_elements, ref_stats.final_elements);

    // Byte-identical store files and resident metadata.
    ASSERT_EQ(repr.value()->store().num_files(),
              ref.value()->store().num_files());
    for (size_t f = 0; f < ref.value()->store().num_files(); ++f) {
      char suffix[24];
      std::snprintf(suffix, sizeof(suffix), ".%03zu", f);
      std::string want, got;
      ASSERT_TRUE(ReadFile(ref_base + suffix, &want));
      ASSERT_TRUE(ReadFile(base + suffix, &got));
      ASSERT_FALSE(want.empty());
      EXPECT_EQ(want, got) << "store file " << f << " differs";
    }
    std::string meta;
    ASSERT_TRUE(ReadFile(base + ".meta", &meta));
    EXPECT_EQ(ref_meta, meta);

    // The report covers all three phases, and the tiny budget actually
    // spilled sorted runs.
    ASSERT_EQ(report.phases.size(), 3u);
    EXPECT_EQ(report.phases[0].name, "ingest");
    EXPECT_EQ(report.phases[1].name, "refine");
    EXPECT_EQ(report.phases[2].name, "encode");
    if (c.expect_sort_spill) {
      EXPECT_GE(report.initial_sort_runs, 2u)
          << "tiny budget never spilled -- the merge path went untested";
    }

    // Spill scratch is gone: the build removed <base>.spill/.
    EXPECT_NE(access((base + ".spill").c_str(), F_OK), 0);
  }
}

// End-to-end wgtool path: build straight from a WGG1 file without ever
// materializing the WebGraph, and still match the in-RAM build bytes.
TEST(StreamingBuildTest, FileSourceBuildMatchesInRamBuild) {
  const WebGraph& graph = SharedGraph();
  std::string ref_base = TempPath("fileref");
  auto ref = SNodeRepr::Build(graph, ref_base, BuildOptions(2));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref.value()->SaveMeta().ok());

  std::string path = TempPath("input.wgg");
  ASSERT_TRUE(SaveWebGraph(graph, path).ok());
  FileEdgeSource source(path);
  BuildMemoryBudget budget;
  budget.total_bytes = size_t{1} << 20;
  std::string base = TempPath("filebuild");
  auto repr = BuildStreaming(&source, base, BuildOptions(2), budget);
  ASSERT_TRUE(repr.ok()) << repr.status().ToString();
  ASSERT_TRUE(repr.value()->SaveMeta().ok());

  ASSERT_EQ(repr.value()->store().num_files(),
            ref.value()->store().num_files());
  for (size_t f = 0; f < ref.value()->store().num_files(); ++f) {
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), ".%03zu", f);
    std::string want, got;
    ASSERT_TRUE(ReadFile(ref_base + suffix, &want));
    ASSERT_TRUE(ReadFile(base + suffix, &got));
    EXPECT_EQ(want, got) << "store file " << f << " differs";
  }
  std::string want_meta, got_meta;
  ASSERT_TRUE(ReadFile(ref_base + ".meta", &want_meta));
  ASSERT_TRUE(ReadFile(base + ".meta", &got_meta));
  EXPECT_EQ(want_meta, got_meta);
}

// The streaming build's answers match ground truth through the ordinary
// read path (not just file bytes).
TEST(StreamingBuildTest, StreamingBuildAnswersMatchGroundTruth) {
  const WebGraph& graph = SharedGraph();
  GeneratorEdgeSource source(CrawlOptions(), TempPath("ans_scratch"));
  BuildMemoryBudget budget;
  budget.total_bytes = size_t{2} << 20;
  auto repr =
      BuildStreaming(&source, TempPath("answers"), BuildOptions(4), budget);
  ASSERT_TRUE(repr.ok()) << repr.status().ToString();
  std::vector<PageId> links;
  for (PageId p = 0; p < graph.num_pages(); p += 23) {
    links.clear();
    ASSERT_TRUE(repr.value()->GetLinks(p, &links).ok());
    auto expected = graph.OutLinks(p);
    ASSERT_EQ(links.size(), expected.size()) << p;
    ASSERT_TRUE(std::equal(links.begin(), links.end(), expected.begin()))
        << p;
  }
}

}  // namespace
}  // namespace wg
