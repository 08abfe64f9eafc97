// Scale harness for the S-Node cold/warm read frontier: sweeps synthetic
// crawls from 1M to 10M pages -- 10-100x past the 1:1000 paper-scale
// sweeps, approaching the paper's own 25M low end -- and measures the
// cursor read path cold (store dropped to true cold state, every section
// read with one pread, CRC-checked, decoded and assembled on demand) and
// warm (assembled blocks cache-resident) at each size. Resident memory
// stays bounded: the crawl is freed once the store is built, a section
// read lives only until it is decoded, and the decoded-graph cache runs
// under a fixed budget independent of graph size.
//
// A second sweep measures the out-of-core build (snode/streaming_build.h):
// each build runs in a re-exec'd child (fork + exec of this binary with a
// hidden --child-* flag) that reports its own VmHWM, so the recorded peak
// is that one build's alone. Both halves of that matter: a bare-fork
// child starts with the parent's copy-on-write resident set (after a
// multi-GB read sweep it would report the parent's baseline, not its own
// allocations), and even across exec the kernel carries ru_maxrss
// forward, so the child must read VmHWM from its fresh post-exec address
// space rather than trust wait4's rusage. The 10M-page point is
// byte-compared against an in-RAM build of the same crawl -- bounded
// memory must not change a single output byte.
//
//   bench_scale [pages...]       read sweep only (default 1M 2.5M 5M 10M);
//                                with no args the streaming sweep
//                                (10M 25M) runs too
//   bench_scale --streaming [pages...]   streaming-build sweep only
//   bench_scale --budget BYTES   streaming build memory budget
//                                (default 512 MiB)
//   bench_scale --streaming-smoke        reduced-size gate for ctest:
//                                builds WG_STREAMING_SMOKE_PAGES pages
//                                (default 200k) under a 32 MiB budget,
//                                asserts byte-identity with the in-RAM
//                                build and a peak-RSS ceiling
//
// Writes BENCH_scale.json (a top-level JSON array, one row per size, with
// "mode": "read" / "streaming") for bench_trajectory to fold into the
// cross-commit trajectory.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "snode/snode_repr.h"
#include "snode/streaming_build.h"

namespace wg::bench {
namespace {

const size_t kScaleSweep[] = {1000000, 2500000, 5000000, 10000000};

// Decoded-graph cache budget: sized so the largest sweep's assembled
// adjacency (~4 bytes per page + edge) stays resident -- "warm" means
// cache-resident, not thrashing -- while total resident memory remains a
// fixed cap ~8x below what the raw crawl would occupy in memory.
constexpr size_t kCacheBudget = 1024u << 20;

constexpr int kColdPasses = 3;
constexpr int kWarmPasses = 3;

struct ScaleRow {
  size_t pages = 0;
  uint64_t edges = 0;
  double cold_ns_per_edge = 0;
  double warm_ns_per_edge = 0;
  double bits_per_edge = 0;
  uint64_t store_bytes = 0;
  uint64_t cache_bytes = 0;
  uint64_t max_rss_bytes = 0;
  double build_seconds = 0;
  double Ratio() const {
    return warm_ns_per_edge > 0 ? cold_ns_per_edge / warm_ns_per_edge : 0;
  }
};

uint64_t MaxRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

// Unlike bench_access's view-acquisition sweep, this one consumes every
// target id (checksummed so the reads cannot be dead-code-eliminated):
// at 10M pages "reading the graph" means streaming the adjacency out of
// DRAM, and a sweep that never touches the edges would understate the
// warm cost it claims to measure.
double SweepCursor(SNodeRepr* repr, const std::vector<PageId>& order,
                   uint64_t* edges, uint64_t* checksum) {
  auto cursor = repr->NewCursor();
  LinkView view;
  uint64_t total = 0;
  uint64_t sum = 0;
  Timer timer;
  for (PageId p : order) {
    CheckOk(cursor->Links(p, &view));
    total += view.size();
    for (PageId q : view) sum ^= q;
  }
  double seconds = timer.Seconds();
  *edges = total;
  *checksum = sum;
  return seconds;
}

ScaleRow MeasureSize(size_t pages) {
  ScaleRow row;
  row.pages = pages;
  std::string base = BenchDir() + "/scale_" + std::to_string(pages);

  SNodeBuildOptions bopts;
  // The 512 KB default fragments a 10M-page store into hundreds of
  // files; this is exactly what wgtool build --max-file-size raises.
  bopts.store.max_file_size = 64u << 20;
  bopts.buffer_bytes = kCacheBudget;
  std::unique_ptr<SNodeRepr> repr;
  {
    // Scoped so the in-memory crawl is freed before any measurement:
    // past this block the process holds only the resident S-Node
    // structures and the bounded cache.
    GeneratorOptions gopts;
    gopts.num_pages = pages;
    gopts.seed = kSeed;
    WebGraph graph = GenerateWebGraph(gopts);
    Timer build_timer;
    repr = UnwrapOrDie(SNodeRepr::Build(graph, base, bopts));
    row.build_seconds = build_timer.Seconds();
  }
  row.edges = repr->num_edges();
  row.bits_per_edge = repr->BitsPerEdge();
  row.store_bytes = repr->store().total_bytes();

  std::vector<PageId> order(repr->num_pages());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = repr->PageInNaturalOrder(i);
  }

  // Cold: first pass from true cold state (page cache dropped), later
  // passes re-cleared decoded-graph cache only; best-of damps noise.
  uint64_t edges = 0;
  uint64_t cold_sum = 0;
  double cold_s = 0;
  for (int i = 0; i < kColdPasses; ++i) {
    if (i == 0) {
      repr->DropToColdState();
    } else {
      repr->ClearBuffers();
    }
    double pass_s = SweepCursor(repr.get(), order, &edges, &cold_sum);
    cold_s = i == 0 ? pass_s : std::min(cold_s, pass_s);
  }
  uint64_t warm_sum = 0;
  double warm_s = SweepCursor(repr.get(), order, &edges, &warm_sum);
  for (int i = 1; i < kWarmPasses; ++i) {
    warm_s = std::min(warm_s, SweepCursor(repr.get(), order, &edges, &warm_sum));
  }
  CheckOk(cold_sum == warm_sum
              ? Status::OK()
              : Status::Internal("cold/warm sweeps read different edges"));
  row.cold_ns_per_edge = cold_s * 1e9 / edges;
  row.warm_ns_per_edge = warm_s * 1e9 / edges;
  row.cache_bytes = repr->buffer_bytes_used();
  row.max_rss_bytes = MaxRssBytes();
  return row;
}

// ---- Streaming-build sweep ----

constexpr size_t kStreamingSweep[] = {10000000, 25000000};
constexpr size_t kDefaultBudget = 512u << 20;
// Acceptance ceiling for the 10M-page point: budget + the O(pages)
// resident arrays + allocator slack must fit well under this.
constexpr uint64_t kRssCeiling10M = 1536ull << 20;

struct StreamingRow {
  size_t pages = 0;
  size_t budget_bytes = 0;
  uint64_t edges = 0;
  uint64_t store_bytes = 0;
  uint64_t max_rss_bytes = 0;    // child's self-reported VmHWM
  uint64_t inram_rss_bytes = 0;  // in-RAM reference build (verify only)
  double build_seconds = 0;
  double bits_per_edge = 0;
  double ingest_seconds = 0, refine_seconds = 0, encode_seconds = 0;
  uint64_t ingest_rss = 0, refine_rss = 0, encode_rss = 0;
  size_t sort_runs = 0;
  int identical = -1;  // -1 = not checked
};

// Path of this binary, captured in main() so measurement children can be
// re-exec'd from it.
const char* g_self = nullptr;

// Runs this binary again with `args`. exec (not just fork) matters: a
// forked child shares the parent's pages copy-on-write and starts with
// its resident set, so after the read sweep has touched gigabytes every
// bare-fork child would report the parent's baseline rather than its own
// allocations. The child reports its own post-exec VmHWM (wait4's
// ru_maxrss is no good either -- the kernel carries it across exec, so
// it too remembers the pre-exec copy-on-write window).
bool RunChild(const std::vector<std::string>& args) {
  std::fflush(nullptr);
  pid_t pid = ::fork();
  CheckOk(pid >= 0 ? Status::OK() : Status::Internal("fork failed"));
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(g_self));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(g_self, argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  int wstatus = 0;
  CheckOk(::waitpid(pid, &wstatus, 0) == pid
              ? Status::OK()
              : Status::Internal("waitpid failed"));
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

// Peak resident set of this process, from /proc/self/status. Monotone
// over the process lifetime; meaningful in measurement children because
// exec gave them a fresh address space.
uint64_t SelfVmHwmBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

std::map<std::string, double> ReadChildReport(const std::string& path) {
  std::map<std::string, double> kv;
  std::ifstream in(path);
  std::string key;
  double value;
  while (in >> key >> value) kv[key] = value;
  return kv;
}

SNodeBuildOptions StreamingBuildOptions() {
  SNodeBuildOptions bopts;
  bopts.store.max_file_size = 64u << 20;
  return bopts;
}

int StreamingChild(size_t pages, size_t budget_bytes, const std::string& base,
                   const std::string& report_path) {
  GeneratorOptions gopts;
  gopts.num_pages = pages;
  gopts.seed = kSeed;
  GeneratorEdgeSource source(gopts, base + ".gen");
  BuildMemoryBudget budget;
  budget.total_bytes = budget_bytes;
  StreamingBuildReport report;
  Timer timer;
  auto repr = BuildStreaming(&source, base, StreamingBuildOptions(), budget,
                             nullptr, &report);
  double seconds = timer.Seconds();
  if (!repr.ok()) {
    std::fprintf(stderr, "streaming build failed: %s\n",
                 repr.status().ToString().c_str());
    return 1;
  }
  if (!repr.value()->SaveMeta().ok()) return 1;
  std::FILE* out = std::fopen(report_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "edges %llu\nbuild_seconds %.3f\nbits_per_edge %.4f\n"
               "store_bytes %llu\nsort_runs %zu\nmax_rss %llu\n",
               static_cast<unsigned long long>(repr.value()->num_edges()),
               seconds, repr.value()->BitsPerEdge(),
               static_cast<unsigned long long>(
                   repr.value()->store().total_bytes()),
               report.initial_sort_runs,
               static_cast<unsigned long long>(SelfVmHwmBytes()));
  for (const StreamingBuildPhase& phase : report.phases) {
    std::fprintf(out, "%s_seconds %.3f\n%s_rss %llu\n", phase.name.c_str(),
                 phase.seconds, phase.name.c_str(),
                 static_cast<unsigned long long>(phase.peak_rss_bytes));
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

int InRamChild(size_t pages, const std::string& base,
               const std::string& report_path) {
  GeneratorOptions gopts;
  gopts.num_pages = pages;
  gopts.seed = kSeed;
  WebGraph graph = GenerateWebGraph(gopts);
  auto repr = SNodeRepr::Build(graph, base, StreamingBuildOptions());
  if (!repr.ok()) {
    std::fprintf(stderr, "in-RAM build failed: %s\n",
                 repr.status().ToString().c_str());
    return 1;
  }
  if (!repr.value()->SaveMeta().ok()) return 1;
  std::FILE* out = std::fopen(report_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "max_rss %llu\n",
               static_cast<unsigned long long>(SelfVmHwmBytes()));
  return std::fclose(out) == 0 ? 0 : 1;
}

bool SameFileBytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  if (!fa.good() || !fb.good()) return false;
  constexpr size_t kChunk = 1u << 20;
  std::vector<char> ba(kChunk), bb(kChunk);
  while (true) {
    fa.read(ba.data(), kChunk);
    fb.read(bb.data(), kChunk);
    if (fa.gcount() != fb.gcount()) return false;
    if (std::memcmp(ba.data(), bb.data(),
                    static_cast<size_t>(fa.gcount())) != 0) {
      return false;
    }
    if (fa.gcount() == 0) return fa.eof() == fb.eof();
  }
}

// Store files are `<base>.000`, `<base>.001`, ... plus `<base>.meta`.
bool SameStoreBytes(const std::string& a, const std::string& b) {
  if (!SameFileBytes(a + ".meta", b + ".meta")) return false;
  for (size_t i = 0;; ++i) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".%03zu", i);
    bool have_a = ::access((a + suffix).c_str(), F_OK) == 0;
    bool have_b = ::access((b + suffix).c_str(), F_OK) == 0;
    if (have_a != have_b) return false;
    if (!have_a) return true;
    if (!SameFileBytes(a + suffix, b + suffix)) return false;
  }
}

void RemoveStore(const std::string& base) {
  (void)RemoveFileIfExists(base + ".meta");
  for (size_t i = 0;; ++i) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), ".%03zu", i);
    if (::access((base + suffix).c_str(), F_OK) != 0) break;
    (void)RemoveFileIfExists(base + suffix);
  }
}

StreamingRow MeasureStreaming(size_t pages, size_t budget_bytes,
                              bool verify) {
  StreamingRow row;
  row.pages = pages;
  row.budget_bytes = budget_bytes;
  std::string base = BenchDir() + "/stream_" + std::to_string(pages);
  std::string report_path = base + ".report";

  bool ok = RunChild({"--child-streaming", std::to_string(pages),
                      std::to_string(budget_bytes), base, report_path});
  CheckOk(ok ? Status::OK() : Status::Internal("streaming build child failed"));
  std::map<std::string, double> kv = ReadChildReport(report_path);
  (void)RemoveFileIfExists(report_path);
  row.max_rss_bytes = static_cast<uint64_t>(kv["max_rss"]);
  row.edges = static_cast<uint64_t>(kv["edges"]);
  row.build_seconds = kv["build_seconds"];
  row.bits_per_edge = kv["bits_per_edge"];
  row.store_bytes = static_cast<uint64_t>(kv["store_bytes"]);
  row.sort_runs = static_cast<size_t>(kv["sort_runs"]);
  row.ingest_seconds = kv["ingest_seconds"];
  row.refine_seconds = kv["refine_seconds"];
  row.encode_seconds = kv["encode_seconds"];
  row.ingest_rss = static_cast<uint64_t>(kv["ingest_rss"]);
  row.refine_rss = static_cast<uint64_t>(kv["refine_rss"]);
  row.encode_rss = static_cast<uint64_t>(kv["encode_rss"]);

  if (verify) {
    std::string ram_base = base + "_ram";
    std::string ram_report = ram_base + ".report";
    ok = RunChild({"--child-inram", std::to_string(pages), ram_base,
                   ram_report});
    CheckOk(ok ? Status::OK() : Status::Internal("in-RAM build child failed"));
    row.inram_rss_bytes =
        static_cast<uint64_t>(ReadChildReport(ram_report)["max_rss"]);
    (void)RemoveFileIfExists(ram_report);
    row.identical = SameStoreBytes(base, ram_base) ? 1 : 0;
    RemoveStore(ram_base);
  }
  return row;
}

void PrintStreamingRow(const StreamingRow& row) {
  std::printf("%9zu %12llu %7zu %9.1f %10.1f %8.1f/%.1f/%.1f %5zu",
              row.pages, static_cast<unsigned long long>(row.edges),
              row.budget_bytes >> 20, row.build_seconds,
              row.max_rss_bytes / (1024.0 * 1024.0),
              row.ingest_rss / (1024.0 * 1024.0),
              row.refine_rss / (1024.0 * 1024.0),
              row.encode_rss / (1024.0 * 1024.0), row.sort_runs);
  if (row.identical >= 0) {
    std::printf("  %s (in-RAM peak %.1f MB)",
                row.identical == 1 ? "identical" : "DIFFERS",
                row.inram_rss_bytes / (1024.0 * 1024.0));
  }
  std::printf("\n");
}

void PrintStreamingHeader() {
  std::printf("\nstreaming build under budget (each build re-exec'd; maxrss "
              "= that child's own VmHWM)\n");
  std::printf("%9s %12s %7s %9s %10s %18s %5s  %s\n", "pages", "edges",
              "bud MB", "build s", "maxrss MB", "in/ref/enc MB", "runs",
              "vs in-RAM");
}

int StreamingSmoke() {
  size_t pages = 200000;
  if (const char* env = std::getenv("WG_STREAMING_SMOKE_PAGES")) {
    size_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) pages = parsed;
  }
  // Default sized to sit between the measured streaming peak (~33 MB at
  // 200k pages under the 32 MiB budget) and the in-RAM build's ~101 MB:
  // a regression that silently materializes the crawl trips the gate.
  uint64_t rss_cap_mb = 96;
  if (const char* env = std::getenv("WG_STREAMING_SMOKE_RSS_MB")) {
    uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) rss_cap_mb = parsed;
  }
  PrintHeader("streaming build smoke (reduced size)");
  StreamingRow row = MeasureStreaming(pages, 32u << 20, /*verify=*/true);
  PrintStreamingHeader();
  PrintStreamingRow(row);
  bool identical = row.identical == 1;
  bool under_cap = row.max_rss_bytes <= rss_cap_mb << 20;
  PrintShapeCheck(identical,
                  "streaming build output byte-identical to in-RAM build");
  PrintShapeCheck(under_cap, "streaming build peak RSS under " +
                                 std::to_string(rss_cap_mb) + " MB cap");
  return identical && under_cap ? 0 : 1;
}

void PrintRow(const ScaleRow& row) {
  std::printf("%9zu %12llu %10.1f %10.1f %7.1fx %8.2f %9.1f %9.1f %10.1f\n",
              row.pages, static_cast<unsigned long long>(row.edges),
              row.cold_ns_per_edge, row.warm_ns_per_edge, row.Ratio(),
              row.bits_per_edge, row.store_bytes / (1024.0 * 1024.0),
              row.cache_bytes / (1024.0 * 1024.0),
              row.max_rss_bytes / (1024.0 * 1024.0));
}

int Main(int argc, char** argv) {
  // Hidden re-exec entry points for RunChild measurement children.
  if (argc >= 2 && std::strcmp(argv[1], "--child-streaming") == 0) {
    if (argc != 6) return 2;
    return StreamingChild(std::strtoull(argv[2], nullptr, 10),
                          std::strtoull(argv[3], nullptr, 10), argv[4],
                          argv[5]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--child-inram") == 0) {
    if (argc != 5) return 2;
    return InRamChild(std::strtoull(argv[2], nullptr, 10), argv[3], argv[4]);
  }
  bool streaming_only = false;
  size_t budget_bytes = kDefaultBudget;
  std::vector<size_t> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--streaming-smoke") return StreamingSmoke();
    if (arg == "--streaming") {
      streaming_only = true;
      continue;
    }
    if (arg == "--budget" && i + 1 < argc) {
      budget_bytes = std::strtoull(argv[++i], nullptr, 10);
      if (budget_bytes == 0) budget_bytes = kDefaultBudget;
      continue;
    }
    size_t pages = std::strtoull(arg.c_str(), nullptr, 10);
    if (pages == 0) {
      std::fprintf(stderr,
                   "usage: bench_scale [--streaming] [--budget BYTES] "
                   "[--streaming-smoke] [pages...]\n");
      return 2;
    }
    positional.push_back(pages);
  }

  // No args: read sweep then streaming sweep. Positional args pick the
  // sizes of whichever sweep runs (read by default, streaming with
  // --streaming).
  std::vector<size_t> sizes, stream_sizes;
  if (streaming_only) {
    stream_sizes = positional;
    if (stream_sizes.empty()) {
      stream_sizes.assign(std::begin(kStreamingSweep),
                          std::end(kStreamingSweep));
    }
  } else if (!positional.empty()) {
    sizes = positional;
  } else {
    sizes.assign(std::begin(kScaleSweep), std::end(kScaleSweep));
    stream_sizes.assign(std::begin(kStreamingSweep),
                        std::end(kStreamingSweep));
  }

  std::vector<ScaleRow> rows;
  if (!sizes.empty()) {
    PrintHeader("S-Node read path at scale (1M-10M pages)");
    std::printf("cache budget %zu MiB, pread read path, cold = store dropped "
                "to cold state, best of %d cold, %d warm passes\n\n",
                kCacheBudget >> 20, kColdPasses, kWarmPasses);
    std::printf("%9s %12s %10s %10s %8s %8s %9s %9s %10s\n", "pages", "edges",
                "cold ns/e", "warm ns/e", "ratio", "bits/e", "store MB",
                "cache MB", "maxrss MB");
    for (size_t pages : sizes) {
      rows.push_back(MeasureSize(pages));
      PrintRow(rows.back());
    }
    const ScaleRow& largest = rows.back();
    // Gate the return of the cold-read cliff (per-blob reads, before
    // whole-section reads, put this ratio at ~100x), not run-to-run
    // drift: container IO speed moves both cold and warm between runs,
    // and measured ratios at these sizes range ~3.9-6x, so the threshold
    // sits just above that band.
    PrintShapeCheck(
        largest.Ratio() <= 6.0,
        "S-Node cold read within ~6x of warm at the largest swept size "
        "(per-blob reads sat at ~100x)");
  }

  std::vector<StreamingRow> stream_rows;
  if (!stream_sizes.empty()) {
    if (sizes.empty()) PrintHeader("out-of-core build at scale");
    PrintStreamingHeader();
    for (size_t pages : stream_sizes) {
      // Identity needs the in-RAM reference build; past 10M pages that
      // defeats the point of the sweep, so verify the 10M-and-under rows.
      bool verify = pages <= 10000000;
      stream_rows.push_back(MeasureStreaming(pages, budget_bytes, verify));
      PrintStreamingRow(stream_rows.back());
    }
    bool bounded = true, identical = true;
    for (const StreamingRow& row : stream_rows) {
      if (row.pages <= 10000000 && row.max_rss_bytes > kRssCeiling10M) {
        bounded = false;
      }
      if (row.identical == 0) identical = false;
    }
    PrintShapeCheck(bounded,
                    "streaming build peak RSS under 1.5 GB at <= 10M pages");
    PrintShapeCheck(identical,
                    "streaming build output byte-identical to in-RAM build");
  }

  std::FILE* json = std::fopen("BENCH_scale.json", "w");
  CheckOk(json != nullptr ? Status::OK()
                          : Status::IOError("cannot write BENCH_scale.json"));
  std::fprintf(json, "[\n");
  size_t total = rows.size() + stream_rows.size();
  size_t emitted = 0;
  for (const ScaleRow& row : rows) {
    ++emitted;
    std::fprintf(json,
                 "  {\"mode\": \"read\", \"pages\": %zu, \"edges\": %llu, "
                 "\"cold_ns_per_edge\": %.1f, \"warm_ns_per_edge\": %.1f, "
                 "\"cold_warm_ratio\": %.2f, \"bits_per_edge\": %.2f, "
                 "\"store_bytes\": %llu, \"cache_bytes\": %llu, "
                 "\"max_rss_bytes\": %llu, \"build_seconds\": %.1f}%s\n",
                 row.pages, static_cast<unsigned long long>(row.edges),
                 row.cold_ns_per_edge, row.warm_ns_per_edge, row.Ratio(),
                 row.bits_per_edge,
                 static_cast<unsigned long long>(row.store_bytes),
                 static_cast<unsigned long long>(row.cache_bytes),
                 static_cast<unsigned long long>(row.max_rss_bytes),
                 row.build_seconds, emitted < total ? "," : "");
  }
  for (const StreamingRow& row : stream_rows) {
    ++emitted;
    std::fprintf(json,
                 "  {\"mode\": \"streaming\", \"pages\": %zu, "
                 "\"edges\": %llu, \"budget_bytes\": %zu, "
                 "\"build_seconds\": %.1f, \"max_rss_bytes\": %llu, "
                 "\"ingest_seconds\": %.1f, \"ingest_peak_rss_bytes\": %llu, "
                 "\"refine_seconds\": %.1f, \"refine_peak_rss_bytes\": %llu, "
                 "\"encode_seconds\": %.1f, \"encode_peak_rss_bytes\": %llu, "
                 "\"sort_runs\": %zu, \"bits_per_edge\": %.2f, "
                 "\"store_bytes\": %llu, \"inram_max_rss_bytes\": %llu, "
                 "\"identical\": %s}%s\n",
                 row.pages, static_cast<unsigned long long>(row.edges),
                 row.budget_bytes, row.build_seconds,
                 static_cast<unsigned long long>(row.max_rss_bytes),
                 row.ingest_seconds,
                 static_cast<unsigned long long>(row.ingest_rss),
                 row.refine_seconds,
                 static_cast<unsigned long long>(row.refine_rss),
                 row.encode_seconds,
                 static_cast<unsigned long long>(row.encode_rss),
                 row.sort_runs, row.bits_per_edge,
                 static_cast<unsigned long long>(row.store_bytes),
                 static_cast<unsigned long long>(row.inram_rss_bytes),
                 row.identical < 0 ? "null"
                                   : (row.identical == 1 ? "true" : "false"),
                 emitted < total ? "," : "");
  }
  std::fprintf(json, "]\n");
  std::fclose(json);
  std::printf("wrote BENCH_scale.json\n");
  return ShapeExitCode();
}

}  // namespace
}  // namespace wg::bench

int main(int argc, char** argv) {
  wg::bench::g_self = argv[0];
  return wg::bench::Main(argc, argv);
}
