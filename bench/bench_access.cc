// A/B benchmark for the zero-copy cursor/view read path vs the legacy
// materialize-into-vector GetLinks wrapper, across all five
// representation schemes. For each scheme it sweeps the whole graph in
// the scheme's natural order twice -- once per API -- and reports ns per
// edge plus the speedup. A second S-Node pass separates cold (first
// touch, decode-dominated) from warm (assembled blocks cache-resident)
// reads, since the warm path is where the cursor's pinned views pay off:
// a LinkView into the decoded-graph cache costs no allocation and no
// copy, while GetLinks re-copies every adjacency into the caller's
// vector. A third section measures random cold lone probes -- one page
// per fresh cursor, as a QueryService out-neighbor request reads it --
// over a serve-cold-sized store with a 256 KiB cache, at 1 and nproc - 1
// threads. Writes machine-readable results to BENCH_access.json.
//
// With --smoke, runs a reduced-size sweep and exits non-zero when the
// S-Node cold/warm ratio exceeds a generous threshold -- registered as a
// ctest under the perf-smoke label so cold-path regressions fail CI.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "repr/relational_repr.h"
#include "repr/uncompressed_repr.h"
#include "snode/snode_repr.h"

namespace wg::bench {
namespace {

constexpr size_t kAccessPages = 50000;
constexpr size_t kSmokePages = 8000;  // --smoke: fast cold-path regression gate
constexpr int kPasses = 3;  // best-of to damp timer noise

// --smoke fails the run when the S-Node cold/warm ratio exceeds this.
// Deliberately generous: the healthy read path sits near 10x at smoke
// size (machine noise included), per-blob reads before whole-section
// reads sat at ~100x, and the point is to catch reintroduced cliffs in
// CI, not to benchmark.
constexpr double kSmokeMaxColdWarmRatio = 50.0;

// Lone-probe section: perfbench's serve-cold store size and cache budget.
constexpr size_t kProbePages = 200000;
constexpr size_t kProbeCacheBytes = 256 << 10;
constexpr int kProbesPerThread = 3000;

struct AccessRow {
  const char* scheme = nullptr;
  double getlinks_ns_per_edge = 0;
  double cursor_ns_per_edge = 0;
  uint64_t edges = 0;
  double Speedup() const {
    return cursor_ns_per_edge > 0
               ? getlinks_ns_per_edge / cursor_ns_per_edge
               : 0;
  }
};

std::vector<PageId> NaturalOrder(const GraphRepresentation& repr) {
  std::vector<PageId> order(repr.num_pages());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = repr.PageInNaturalOrder(i);
  }
  return order;
}

// One full sweep through the legacy wrapper. Returns seconds.
double SweepGetLinks(GraphRepresentation* repr,
                     const std::vector<PageId>& order, uint64_t* edges) {
  std::vector<PageId> links;
  uint64_t total = 0;
  Timer timer;
  for (PageId p : order) {
    links.clear();
    CheckOk(repr->GetLinks(p, &links));
    total += links.size();
  }
  double seconds = timer.Seconds();
  *edges = total;
  return seconds;
}

// One full sweep through a cursor. Returns seconds.
double SweepCursor(GraphRepresentation* repr,
                   const std::vector<PageId>& order, uint64_t* edges) {
  auto cursor = repr->NewCursor();
  LinkView view;
  uint64_t total = 0;
  Timer timer;
  for (PageId p : order) {
    CheckOk(cursor->Links(p, &view));
    total += view.size();
  }
  double seconds = timer.Seconds();
  *edges = total;
  return seconds;
}

template <typename SweepFn>
double BestOf(SweepFn sweep, uint64_t* edges) {
  double best = sweep(edges);
  for (int i = 1; i < kPasses; ++i) {
    best = std::min(best, sweep(edges));
  }
  return best;
}

// Warms both paths once (so caches hold whatever they hold at steady
// state), then measures best-of-kPasses for each API, interleaving the
// passes so neither API systematically benefits from running later.
AccessRow MeasureScheme(const char* scheme, GraphRepresentation* repr) {
  AccessRow row;
  row.scheme = scheme;
  std::vector<PageId> order = NaturalOrder(*repr);
  uint64_t edges = 0;
  SweepCursor(repr, order, &edges);    // warm-up
  SweepGetLinks(repr, order, &edges);  // warm-up
  double cursor_s = SweepCursor(repr, order, &edges);
  double getlinks_s = SweepGetLinks(repr, order, &edges);
  for (int i = 1; i < kPasses; ++i) {
    cursor_s = std::min(cursor_s, SweepCursor(repr, order, &row.edges));
    getlinks_s = std::min(getlinks_s, SweepGetLinks(repr, order, &edges));
  }
  CheckOk(edges == row.edges
              ? Status::OK()
              : Status::Internal("edge counts diverge between APIs"));
  row.cursor_ns_per_edge = cursor_s * 1e9 / row.edges;
  row.getlinks_ns_per_edge = getlinks_s * 1e9 / row.edges;
  return row;
}

// One lone-probe measurement: `threads` workers together, per-probe
// averages of the repr's counters and the process's voluntary context
// switches.
struct ProbeRow {
  int threads = 0;
  uint64_t probes = 0;
  double seconds = 0;
  double store_reads = 0;
  double blobs_decoded = 0;
  double assembles = 0;
  double context_switches = 0;
  double ProbesPerSecond() const { return probes / seconds; }
  double MicrosPerProbe() const { return seconds * 1e6 * threads / probes; }
};

uint64_t VoluntaryContextSwitches() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_nvcsw);
}

// Each of `threads` workers reads kProbesPerThread uniformly random pages,
// each through a fresh cursor, from an empty cache. Best of kPasses by
// wall time.
ProbeRow MeasureLoneProbes(SNodeRepr* repr, int threads) {
  ProbeRow best;
  for (int pass = 0; pass < kPasses; ++pass) {
    repr->ClearBuffers();
    const ReprStats& stats = repr->stats();
    uint64_t reads = stats.disk_reads;
    uint64_t blobs = stats.graphs_loaded;
    uint64_t assembles = repr->cold_stats().assembles;
    uint64_t switches = VoluntaryContextSwitches();
    Timer timer;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([repr, t, pass] {
        std::mt19937_64 rng(kSeed + 1000 * pass + t);
        std::uniform_int_distribution<PageId> page(
            0, static_cast<PageId>(repr->num_pages() - 1));
        LinkView view;
        for (int i = 0; i < kProbesPerThread; ++i) {
          CheckOk(repr->NewCursor()->Links(page(rng), &view));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    ProbeRow row;
    row.threads = threads;
    row.seconds = timer.Seconds();
    row.probes = static_cast<uint64_t>(threads) * kProbesPerThread;
    double n = static_cast<double>(row.probes);
    row.store_reads = (stats.disk_reads - reads) / n;
    row.blobs_decoded = (stats.graphs_loaded - blobs) / n;
    row.assembles = (repr->cold_stats().assembles - assembles) / n;
    row.context_switches = (VoluntaryContextSwitches() - switches) / n;
    if (pass == 0 || row.seconds < best.seconds) best = row;
  }
  return best;
}

// What the probe store holds in memory with its buffers cleared, so no
// decoded-graph cache bytes are counted: the whole resident index and the
// store directory's share of it.
struct ResidentBytes {
  size_t total = 0;
  size_t directory = 0;
};

// Builds the serve-cold-sized store (pread reads, 256 KiB cache) and
// measures lone probes at 1 and nproc - 1 threads.
std::vector<ProbeRow> LoneProbeRows(size_t* sections,
                                    ResidentBytes* resident) {
  GeneratorOptions gopts;
  gopts.num_pages = kProbePages;
  gopts.seed = kSeed;
  WebGraph graph = GenerateWebGraph(gopts);
  SNodeBuildOptions opts;
  opts.threads = 0;  // build with all cores; output is thread-count invariant
  opts.buffer_bytes = kProbeCacheBytes;
  auto repr =
      UnwrapOrDie(SNodeRepr::Build(graph, BenchDir() + "/acc_probe", opts));
  *sections = repr->supernode_graph().num_supernodes();
  repr->ClearBuffers();
  resident->total = repr->resident_memory();
  resident->directory = repr->store().DirectoryMemoryUsage();
  int many =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  std::vector<ProbeRow> rows = {MeasureLoneProbes(repr.get(), 1)};
  if (many > 1) rows.push_back(MeasureLoneProbes(repr.get(), many));
  return rows;
}

void PrintRow(const AccessRow& row) {
  std::printf("%-20s %14.1f %14.1f %9.2fx %12llu\n", row.scheme,
              row.getlinks_ns_per_edge, row.cursor_ns_per_edge,
              row.Speedup(), static_cast<unsigned long long>(row.edges));
}

int Main(bool smoke) {
  PrintHeader("cursor/view vs GetLinks access cost (ns per edge)");
  GeneratorOptions gopts;
  gopts.num_pages = smoke ? kSmokePages : kAccessPages;
  gopts.seed = kSeed;
  WebGraph graph = GenerateWebGraph(gopts);
  std::printf("workload: %zu pages, %llu links, natural-order sweep, "
              "best of %d passes\n\n",
              graph.num_pages(),
              static_cast<unsigned long long>(graph.num_edges()), kPasses);

  auto huffman = HuffmanRepr::Build(graph);
  auto link3 = UnwrapOrDie(Link3Repr::Build(graph, BenchDir() + "/acc_l3", {}));
  auto snode = UnwrapOrDie(SNodeRepr::Build(graph, BenchDir() + "/acc_sn", {}));
  auto relational =
      UnwrapOrDie(RelationalRepr::Build(graph, BenchDir() + "/acc_rel", {}));
  auto file = UnwrapOrDie(
      UncompressedFileRepr::Build(graph, BenchDir() + "/acc_unc", {}));
  // Size the decoded-graph cache for the sweep: "warm" should mean the
  // assembled blocks are cache-resident, not thrashing the default 4 MiB
  // Figure-12 budget (which re-assembles every supernode each lap).
  snode->set_buffer_budget(64 << 20);

  std::printf("%-20s %14s %14s %9s %12s\n", "scheme", "GetLinks ns/e",
              "cursor ns/e", "speedup", "edges");
  std::vector<AccessRow> rows;
  rows.push_back(MeasureScheme("uncompressed-file", file.get()));
  rows.push_back(MeasureScheme("relational", relational.get()));
  rows.push_back(MeasureScheme("plain-huffman", huffman.get()));
  rows.push_back(MeasureScheme("link3", link3.get()));
  rows.push_back(MeasureScheme("s-node", snode.get()));
  for (const AccessRow& row : rows) PrintRow(row);

  // S-Node cold vs warm: the cold sweep decodes + assembles every
  // supernode; the warm sweep serves pinned views out of the cache.
  // Cold is re-established (cache dropped) before every pass, so best-of
  // damps scheduler noise without letting state leak between passes.
  std::vector<PageId> order = NaturalOrder(*snode);
  uint64_t edges = 0;
  double cold_s = 0;
  for (int i = 0; i < kPasses; ++i) {
    snode->ClearBuffers();
    double pass_s = SweepCursor(snode.get(), order, &edges);
    cold_s = i == 0 ? pass_s : std::min(cold_s, pass_s);
  }
  double warm_s = BestOf(
      [&](uint64_t* e) { return SweepCursor(snode.get(), order, e); },
      &edges);
  double cold_ns = cold_s * 1e9 / edges;
  double warm_ns = warm_s * 1e9 / edges;
  std::printf("\ns-node cursor, cold (decode+assemble): %10.1f ns/edge\n"
              "s-node cursor, warm (pinned views):     %10.1f ns/edge\n",
              cold_ns, warm_ns);

  const AccessRow& sn = rows.back();
  bool warm_wins = sn.Speedup() > 1.0;
  PrintShapeCheck(warm_wins,
                  "zero-copy cursor beats materializing GetLinks on the "
                  "S-Node warm path");

  if (smoke) {
    // Regression gate (ctest label perf-smoke): a reintroduced cold-read
    // cliff fails the suite instead of silently landing. No JSON -- a
    // smoke run must not clobber the full-size BENCH_access.json.
    double ratio = warm_ns > 0 ? cold_ns / warm_ns : 0;
    bool ok = ratio <= kSmokeMaxColdWarmRatio;
    std::printf("perf-smoke: cold/warm ratio %.1fx (limit %.0fx) -- %s\n",
                ratio, kSmokeMaxColdWarmRatio, ok ? "PASS" : "FAIL");
    return ok ? ShapeExitCode() : 1;
  }

  size_t probe_sections = 0;
  ResidentBytes resident;
  std::vector<ProbeRow> probe_rows =
      LoneProbeRows(&probe_sections, &resident);
  std::printf("\ns-node resident index, buffers cleared (%zu pages): %zu B, "
              "%.2f B/page; store directory %zu B\n",
              kProbePages, resident.total,
              static_cast<double>(resident.total) / kProbePages,
              resident.directory);
  std::printf("\ns-node random cold lone probes (%zu pages, %zu sections, "
              "%zu KiB cache, pread), best of %d passes:\n",
              kProbePages, probe_sections, kProbeCacheBytes >> 10, kPasses);
  std::printf("%-8s %10s %10s %12s %12s %12s %11s\n", "threads", "us/probe",
              "probes/s", "reads/probe", "blobs/probe", "asm/probe",
              "vcsw/probe");
  for (const ProbeRow& row : probe_rows) {
    std::printf("%-8d %10.1f %10.0f %12.2f %12.1f %12.3f %11.2f\n",
                row.threads, row.MicrosPerProbe(), row.ProbesPerSecond(),
                row.store_reads, row.blobs_decoded, row.assembles,
                row.context_switches);
  }
  double probe_scaling = probe_rows.back().ProbesPerSecond() /
                         probe_rows.front().ProbesPerSecond();
  std::printf("lone-probe scaling, %d threads vs 1: %.2fx\n",
              probe_rows.back().threads, probe_scaling);

  std::FILE* json = std::fopen("BENCH_access.json", "w");
  CheckOk(json != nullptr ? Status::OK()
                          : Status::IOError("cannot write BENCH_access.json"));
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"bench_access\",\n"
               "  %s,\n"
               "  \"pages\": %zu,\n"
               "  \"edges\": %llu,\n"
               "  \"passes\": %d,\n"
               "  \"snode_cold_ns_per_edge\": %.1f,\n"
               "  \"snode_warm_ns_per_edge\": %.1f,\n"
               "  \"schemes\": [\n",
               ProvenanceJsonFields().c_str(), graph.num_pages(),
               static_cast<unsigned long long>(graph.num_edges()), kPasses,
               cold_ns, warm_ns);
  for (size_t i = 0; i < rows.size(); ++i) {
    const AccessRow& row = rows[i];
    std::fprintf(json,
                 "    {\"scheme\": \"%s\", "
                 "\"getlinks_ns_per_edge\": %.1f, "
                 "\"cursor_ns_per_edge\": %.1f, "
                 "\"speedup\": %.3f, \"edges\": %llu}%s\n",
                 row.scheme, row.getlinks_ns_per_edge,
                 row.cursor_ns_per_edge, row.Speedup(),
                 static_cast<unsigned long long>(row.edges),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"lone_probe\": {\"pages\": %zu, \"sections\": %zu, "
               "\"cache_bytes\": %zu, \"store\": \"pread\", "
               "\"probes_per_thread\": %d, \"scaling\": %.3f,\n"
               "    \"resident_bytes\": %zu, "
               "\"resident_bytes_per_page\": %.2f, "
               "\"directory_bytes\": %zu,\n"
               "    \"rows\": [\n",
               kProbePages, probe_sections, kProbeCacheBytes, kProbesPerThread,
               probe_scaling, resident.total,
               static_cast<double>(resident.total) / kProbePages,
               resident.directory);
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    const ProbeRow& row = probe_rows[i];
    std::fprintf(json,
                 "      {\"threads\": %d, \"us_per_probe\": %.1f, "
                 "\"probes_per_s\": %.0f, \"store_reads_per_probe\": %.3f, "
                 "\"blobs_decoded_per_probe\": %.2f, "
                 "\"assembles_per_probe\": %.4f, "
                 "\"voluntary_context_switches_per_probe\": %.3f}%s\n",
                 row.threads, row.MicrosPerProbe(), row.ProbesPerSecond(),
                 row.store_reads, row.blobs_decoded, row.assembles,
                 row.context_switches, i + 1 < probe_rows.size() ? "," : "");
  }
  std::fprintf(json, "    ]}\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_access.json\n");
  return ShapeExitCode();
}

}  // namespace
}  // namespace wg::bench

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return wg::bench::Main(smoke);
}
