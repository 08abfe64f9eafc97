// S-Node construction throughput vs thread count. Builds the complete
// representation for the same generated crawl at 1/2/4/8 worker threads,
// prints per-phase wall-clock (refine / encode / layout), verifies the
// store files are byte-identical across thread counts, and writes
// machine-readable results to BENCH_build.json in the working directory.
//
// This is the offline hot path: for any graph large enough to matter, the
// build (k-means refinement + per-graph reference encoding) dominates
// end-to-end time, and both phases are embarrassingly parallel up to the
// ordered store layout (cf. Besta & Hoefler, arXiv:1806.01799; Grabowski
// & Bieniecki, arXiv:1006.0809).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/generator.h"
#include "snode/snode_repr.h"
#include "util/parallel.h"

namespace wg::bench {
namespace {

constexpr size_t kBuildPages = 60000;
const int kThreadCounts[] = {1, 2, 4, 8};

struct BuildRun {
  int threads = 0;
  double total_seconds = 0;
  double refine_seconds = 0;
  double encode_seconds = 0;
  double layout_seconds = 0;
  uint32_t supernodes = 0;
  uint64_t store_bytes = 0;
  size_t store_files = 0;
};

std::string StoreBase(int threads) {
  return BenchDir() + "/build_t" + std::to_string(threads);
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

// Compares every store file of run `threads` against the threads=1 run.
bool StoresIdentical(int threads, size_t num_files) {
  for (size_t f = 0; f < num_files; ++f) {
    char suffix[24];
    std::snprintf(suffix, sizeof(suffix), ".%03zu", f);
    std::string a, b;
    if (!ReadFileBytes(StoreBase(1) + suffix, &a) ||
        !ReadFileBytes(StoreBase(threads) + suffix, &b) || a != b) {
      return false;
    }
  }
  return true;
}

int Main() {
  PrintHeader("S-Node build scalability (1/2/4/8 threads)");
  GeneratorOptions gopts;
  gopts.num_pages = kBuildPages;
  gopts.seed = kSeed;
  WebGraph graph = GenerateWebGraph(gopts);
  std::printf("workload: %zu pages, %llu links, %d hardware threads\n",
              graph.num_pages(),
              static_cast<unsigned long long>(graph.num_edges()),
              ParallelExecutor::HardwareThreads());

  std::vector<BuildRun> runs;
  bool identical = true;
  for (int threads : kThreadCounts) {
    SNodeBuildOptions options;
    options.threads = threads;
    RefinementStats stats;
    Timer timer;
    auto repr = UnwrapOrDie(
        SNodeRepr::Build(graph, StoreBase(threads), options, &stats));
    BuildRun run;
    run.threads = threads;
    run.total_seconds = timer.Seconds();
    run.refine_seconds = stats.refine_seconds;
    run.encode_seconds = stats.encode_seconds;
    run.layout_seconds = stats.layout_seconds;
    run.supernodes = repr->supernode_graph().num_supernodes();
    run.store_bytes = repr->store().total_bytes();
    run.store_files = repr->store().num_files();
    if (threads != 1) {
      identical = identical && run.store_bytes == runs[0].store_bytes &&
                  run.store_files == runs[0].store_files &&
                  StoresIdentical(threads, run.store_files);
    }
    runs.push_back(run);
    std::printf(
        "threads=%d  total=%6.2fs  refine=%6.2fs  encode=%6.2fs  "
        "layout=%5.2fs  supernodes=%u  speedup=%.2fx\n",
        threads, run.total_seconds, run.refine_seconds, run.encode_seconds,
        run.layout_seconds, run.supernodes,
        runs[0].total_seconds / run.total_seconds);
  }

  double speedup8 = runs[0].total_seconds / runs.back().total_seconds;
  std::FILE* json = std::fopen("BENCH_build.json", "w");
  CheckOk(json != nullptr ? Status::OK()
                          : Status::IOError("cannot write BENCH_build.json"));
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"bench_build\",\n"
               "  %s,\n"
               "  \"pages\": %zu,\n"
               "  \"edges\": %llu,\n"
               "  \"hardware_threads\": %d,\n"
               "  \"stores_byte_identical\": %s,\n"
               "  \"speedup_8_over_1\": %.3f,\n"
               "  \"runs\": [\n",
               ProvenanceJsonFields().c_str(), graph.num_pages(),
               static_cast<unsigned long long>(graph.num_edges()),
               ParallelExecutor::HardwareThreads(),
               identical ? "true" : "false", speedup8);
  for (size_t i = 0; i < runs.size(); ++i) {
    const BuildRun& run = runs[i];
    std::fprintf(json,
                 "    {\"threads\": %d, \"total_s\": %.4f, "
                 "\"refine_s\": %.4f, \"encode_s\": %.4f, "
                 "\"layout_s\": %.4f, \"supernodes\": %u, "
                 "\"store_bytes\": %llu, \"speedup_vs_1\": %.3f}%s\n",
                 run.threads, run.total_seconds, run.refine_seconds,
                 run.encode_seconds, run.layout_seconds, run.supernodes,
                 static_cast<unsigned long long>(run.store_bytes),
                 runs[0].total_seconds / run.total_seconds,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_build.json\n");

  PrintShapeCheck(identical,
                  "store files byte-identical across all thread counts");
  PrintShapeCheckDocumented(
      speedup8 >= 2.0,
      "parallel build (threads=8) is >= 2x faster than threads=1",
      "this host exposes " +
          std::to_string(ParallelExecutor::HardwareThreads()) +
          " hardware thread(s); CPU-bound scaling cannot manifest below 2+ "
          "cores, see EXPERIMENTS.md");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace wg::bench

int main() { return wg::bench::Main(); }
