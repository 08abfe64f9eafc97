#ifndef WG_BENCH_BENCH_COMMON_H_
#define WG_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "graph/webgraph.h"
#include "query/queries.h"
#include "repr/representation.h"
#include "storage/file.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/pagerank.h"
#include "util/status.h"

// Shared machinery for the paper-reproduction benchmark binaries. Each
// binary regenerates its workload (deterministic seeds), runs one
// experiment, prints rows matching the paper's table/figure, then prints a
// `paper-shape check:` verdict for the qualitative claim.

namespace wg::bench {

// The paper's data sets are 25/50/75/100/115 MILLION page crawl prefixes;
// ours are the same prefixes at 1:1000 scale from one generated crawl.
inline constexpr size_t kScaleDown = 1000;
inline const size_t kSweepSizes[] = {25000, 50000, 75000, 100000, 115000};
inline constexpr size_t kMaxPages = 115000;
inline constexpr uint64_t kSeed = 42;

// 2001-era disk model used to translate counted physical I/O into time,
// since at 1:1000 scale every store fits the page cache and raw pread
// latency no longer resembles the paper's testbed (dual PIII, local IDE
// disks). EXPERIMENTS.md discusses this substitution.
inline constexpr double kSeekSeconds = 0.008;        // seek + rotation
inline constexpr double kBytesPerSecond = 25e6;      // sequential transfer

inline double ModeledSeconds(double wall_seconds, const ReprStats& stats) {
  // Seek-aware: sequential/near-sequential reads pay only transfer time
  // (storage/file.h), which is what rewards the paper's linear layout.
  return wall_seconds + stats.disk_seeks * kSeekSeconds +
         static_cast<double>(stats.disk_transfer_bytes) / kBytesPerSecond;
}

// The full crawl, generated once per process.
inline const WebGraph& FullCrawl() {
  static WebGraph* graph = [] {
    GeneratorOptions opts;
    opts.num_pages = kMaxPages;
    opts.seed = kSeed;
    return new WebGraph(GenerateWebGraph(opts));
  }();
  return *graph;
}

inline std::string BenchDir() {
  std::string dir = "/tmp/wg_bench";
  WG_CHECK(EnsureDirectory(dir).ok());
  return dir;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Crashes with a message if a Status/Result failed: benchmark binaries
// treat any error as fatal.
inline void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T UnwrapOrDie(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "benchmark failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

// Runs `cmd` through the shell; returns its stdout without trailing
// newlines ("" when it cannot run).
inline std::string RunCommand(const char* cmd) {
  std::string out;
  if (std::FILE* pipe = ::popen(cmd, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

// Provenance fields for a BENCH_*.json object: the host's core count and
// the commit of the working directory ("unknown" outside a checkout, a
// "-dirty" suffix when the tree has uncommitted changes). Emitted as
// `"nproc": N, "commit": "..."` without surrounding braces.
inline std::string ProvenanceJsonFields() {
  std::string commit = RunCommand("git rev-parse --short=12 HEAD 2>/dev/null");
  if (commit.empty()) {
    commit = "unknown";
  } else if (!RunCommand(
                  "git status --porcelain --untracked-files=no 2>/dev/null")
                  .empty()) {
    commit += "-dirty";
  }
  return "\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"commit\": \"" + commit + "\"";
}

inline void PrintHeader(const char* title) {
  std::printf("==== %s ====\n", title);
}

// Set by any paper-shape check that prints FAIL; DIVERGES (documented)
// does not count. Every bench's main returns ShapeExitCode(), so a FAIL
// exits 1 and the paper-shape ctests gate on it.
inline bool& ShapeCheckFailed() {
  static bool failed = false;
  return failed;
}
inline int ShapeExitCode() { return ShapeCheckFailed() ? 1 : 0; }

inline void PrintShapeCheck(bool ok, const std::string& claim) {
  if (!ok) ShapeCheckFailed() = true;
  std::printf("paper-shape check: %s -- %s\n", ok ? "PASS" : "FAIL",
              claim.c_str());
}

// For claims that are corpus-dependent and measured to diverge at 1:1000
// scale; EXPERIMENTS.md documents each instance.
inline void PrintShapeCheckDocumented(bool ok, const std::string& claim,
                                      const std::string& note) {
  if (ok) {
    std::printf("paper-shape check: PASS -- %s\n", claim.c_str());
  } else {
    std::printf(
        "paper-shape check: DIVERGES (documented) -- %s\n  note: %s\n",
        claim.c_str(), note.c_str());
  }
}

}  // namespace wg::bench

#endif  // WG_BENCH_BENCH_COMMON_H_
