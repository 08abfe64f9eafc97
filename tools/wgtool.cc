// wgtool — command-line front end for the library.
//
//   wgtool generate --pages N [--seed S] --out crawl.wg
//       Generate a synthetic crawl and save it.
//   wgtool stats crawl.wg
//       Print structural statistics of a saved crawl.
//   wgtool build crawl.wg --store BASE [--threads N] [--trace-out F]
//                [--max-file-size BYTES] [--mem-budget BYTES]
//       Build an S-Node representation at BASE.{000,001,...} + BASE.meta.
//       N worker threads (default: all hardware threads); the output is
//       byte-identical for every N. --trace-out writes the build's phase
//       spans (refine passes, encode windows, layout) as Chrome
//       trace-event JSONL, viewable in Perfetto. --max-file-size caps each
//       pack file (suffixes k/m/g accepted; default 512k) -- raise it at
//       1M+ pages so the store doesn't fragment into thousands of files.
//       --mem-budget switches to the out-of-core build: the crawl file is
//       streamed (never fully resident) and intermediate data beyond the
//       budget spills to BASE.spill/, producing byte-identical output with
//       bounded peak RSS. Use it when the crawl outgrows memory.
//   wgtool info BASE
//       Print the resident structure of a persisted S-Node representation.
//   wgtool links BASE PAGE [crawl.wg]
//       Print the out-links of PAGE from the persisted representation
//       (with URLs if the crawl file is given).
//   wgtool pagerank BASE [--top K]
//       Compute PageRank over the persisted representation by streaming
//       every adjacency list through a cursor, and print the top K pages.
//   wgtool compare crawl.wg
//       Build all representation schemes and print bits/edge side by side.
//   wgtool snapshot-init crawl.wg --dir DIR [--max-file-size BYTES]
//       Create a versioned snapshot store at DIR: full S-Node build of the
//       crawl published as generation 0, plus an empty crawl-delta log.
//       --max-file-size caps the generation's pack files, as in build.
//   wgtool delta-apply DIR deltas.txt
//       Append crawl deltas to the store's write-ahead log. Lines:
//         addpage URL HOST DOMAIN   (page id = next dense id)
//         rmpage P                  (tombstone page P)
//         addlink P Q / rmlink P Q
//       '#' comments and blank lines are skipped. The batch is validated
//       against base-plus-pending state and appended atomically.
//   wgtool compact DIR
//       Fold all pending deltas into the next generation: re-refine and
//       re-encode only dirty supernode sections, writing each whole, share
//       every clean section whole with the base generation, and
//       atomically repoint CURRENT. A running wgserve --snapshot flips
//       live.
//   wgtool snapshots DIR
//       List the store's generations (live one starred) with their
//       section sharing counts and pending delta-log records.
//   wgtool scrub PATH
//       Offline integrity scrub. PATH is either a snapshot directory
//       (contains CURRENT; the live generation's sections are verified,
//       including ones shared from older packs) or an S-Node store base
//       path (BASE.meta). Every section is pread and checked against its
//       recorded CRC32; prints a report naming each damaged section and
//       its pack, and exits non-zero if any is damaged. Read-only -- safe
//       against a store another process is serving.
//   wgtool gc DIR [--apply]
//       Find pack files no longer referenced by the live manifest (after
//       compactions have re-encoded everything they held) and report the
//       reclaimable bytes. Dry-run by default; --apply unlinks them.
//       Referenced packs, CURRENT, MANIFEST-*, and deltas.log are never
//       touched.
//
// A numeric argument (--pages, --seed, --threads, --top, PAGE) that is not
// entirely a number inside its range, and any argument a subcommand does
// not take, print the usage and exit 2 before anything is read or written.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flags.h"
#include "graph/edge_source.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "obs/trace.h"
#include "repr/huffman_repr.h"
#include "repr/link3_repr.h"
#include "repr/relational_repr.h"
#include "repr/uncompressed_repr.h"
#include "snode/snode_repr.h"
#include "snode/streaming_build.h"
#include "storage/file.h"
#include "text/pagerank.h"
#include "util/parallel.h"
#include "version/gc.h"
#include "version/scrub.h"
#include "version/snapshot.h"

namespace wg {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wgtool generate --pages N [--seed S] --out crawl.wg\n"
      "  wgtool stats crawl.wg\n"
      "  wgtool build crawl.wg --store BASE [--threads N] [--trace-out F]\n"
      "               [--max-file-size BYTES] [--mem-budget BYTES]\n"
      "  wgtool info BASE\n"
      "  wgtool links BASE PAGE [crawl.wg]\n"
      "  wgtool pagerank BASE [--top K]\n"
      "  wgtool compare crawl.wg\n"
      "  wgtool snapshot-init crawl.wg --dir DIR [--max-file-size BYTES]\n"
      "  wgtool delta-apply DIR deltas.txt\n"
      "  wgtool compact DIR\n"
      "  wgtool snapshots DIR\n"
      "  wgtool scrub PATH\n"
      "  wgtool gc DIR [--apply]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Flags of a subcommand: everything after its name and its first
// `positionals` arguments.
Flags CommandFlags(int argc, char** argv, int positionals) {
  return Flags(argc, argv, 2 + positionals, Usage);
}

int CmdGenerate(int argc, char** argv) {
  Flags flags = CommandFlags(argc, argv, 0);
  const char* out = flags.Value("--out");
  if (flags.Value("--pages") == nullptr || out == nullptr) return Usage();
  GeneratorOptions options;
  // Page ids are uint32_t with UINT32_MAX reserved, as in wgserve.
  options.num_pages = flags.Numeric<size_t>("--pages", 0, 1, UINT32_MAX - 1);
  options.seed =
      flags.Numeric<uint64_t>("--seed", options.seed, 0, UINT64_MAX);
  flags.RejectUnconsumed();
  WebGraph graph = GenerateWebGraph(options);
  Status status = SaveWebGraph(graph, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s: %zu pages, %llu links\n", out, graph.num_pages(),
              static_cast<unsigned long long>(graph.num_edges()));
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto graph = LoadWebGraph(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("%s\n", ComputeStats(graph.value()).ToString().c_str());
  std::printf("hosts=%zu domains=%zu memory=%.1f MB\n",
              graph.value().num_hosts(), graph.value().num_domains(),
              graph.value().MemoryUsage() / (1024.0 * 1024.0));
  return 0;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 3) return Usage();
  Flags flags = CommandFlags(argc, argv, 1);
  const char* store = flags.Value("--store");
  if (store == nullptr) return Usage();
  SNodeBuildOptions options;
  options.store.max_file_size =
      flags.Bytes("--max-file-size", options.store.max_file_size);
  options.threads = flags.Numeric<int>(
      "--threads", ParallelExecutor::HardwareThreads(), 1, 1024);
  const char* mem_budget = flags.Value("--mem-budget");
  BuildMemoryBudget budget;
  budget.total_bytes = flags.Bytes("--mem-budget", budget.total_bytes);
  const char* trace_out = flags.Value("--trace-out");
  flags.RejectUnconsumed();
  obs::Tracer& tracer = obs::Tracer::Global();
  if (trace_out != nullptr) {
    tracer.set_sample_interval(1);  // one build = one trace; keep it all
    Status opened = tracer.OpenSink(trace_out);
    if (!opened.ok()) return Fail(opened);
  }
  RefinementStats stats;
  StreamingBuildReport report;
  Result<std::unique_ptr<SNodeRepr>> repr = [&] {
    obs::Span root("wgtool.build", "build", obs::Span::RootTag{});
    if (mem_budget != nullptr) {
      // Out-of-core: stream the crawl file, never materialize the graph.
      FileEdgeSource source(argv[2]);
      return BuildStreaming(&source, store, options, budget, &stats,
                            &report);
    }
    auto graph = LoadWebGraph(argv[2]);
    if (!graph.ok()) {
      return Result<std::unique_ptr<SNodeRepr>>(graph.status());
    }
    return SNodeRepr::Build(graph.value(), store, options, &stats);
  }();
  if (!repr.ok()) return Fail(repr.status());
  Status saved = repr.value()->SaveMeta();
  if (!saved.ok()) return Fail(saved);
  if (trace_out != nullptr) {
    uint64_t spans = tracer.spans_written();
    Status closed = tracer.Close();
    if (!closed.ok()) return Fail(closed);
    std::printf("trace: %llu spans -> %s\n",
                static_cast<unsigned long long>(spans), trace_out);
  }
  std::printf("refinement: %s\n", stats.ToString().c_str());
  if (mem_budget != nullptr) {
    std::printf("streaming: budget %zu MB, %zu sort runs spilled\n",
                budget.effective_bytes() >> 20, report.initial_sort_runs);
    for (const StreamingBuildPhase& phase : report.phases) {
      std::printf("  %-8s %8.2fs  peak rss %.1f MB\n", phase.name.c_str(),
                  phase.seconds, phase.peak_rss_bytes / (1024.0 * 1024.0));
    }
  }
  std::printf("built %s: %u supernodes, %llu superedges, %.2f bits/link, "
              "%zu store files, %d threads\n",
              store, repr.value()->supernode_graph().num_supernodes(),
              static_cast<unsigned long long>(
                  repr.value()->supernode_graph().num_superedges()),
              repr.value()->BitsPerEdge(), repr.value()->store().num_files(),
              options.threads);
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto repr = SNodeRepr::Open(argv[2], {});
  if (!repr.ok()) return Fail(repr.status());
  const SupernodeGraph& sg = repr.value()->supernode_graph();
  std::printf("pages:          %zu\n", repr.value()->num_pages());
  std::printf("links:          %llu\n",
              static_cast<unsigned long long>(repr.value()->num_edges()));
  std::printf("supernodes:     %u\n", sg.num_supernodes());
  std::printf("superedges:     %llu\n",
              static_cast<unsigned long long>(sg.num_superedges()));
  std::printf("bits/link:      %.2f\n", repr.value()->BitsPerEdge());
  std::printf("top level:      %.1f KB (Huffman + pointers)\n",
              sg.HuffmanEncodedBytes() / 1024.0);
  std::printf("store:          %llu bytes in %zu files, %zu sections, "
              "%zu graphs\n",
              static_cast<unsigned long long>(
                  repr.value()->store().total_bytes()),
              repr.value()->store().num_files(),
              repr.value()->store().num_sections(),
              repr.value()->store().num_graphs());
  std::printf("domains:        %zu\n", sg.domain_supernodes.size());
  return 0;
}

int CmdLinks(int argc, char** argv) {
  if (argc != 4 && argc != 5) return Usage();
  const PageId page = CommandFlags(argc, argv, 2).Number<PageId>(
      "PAGE", argv[3], 0, UINT32_MAX);
  auto repr = SNodeRepr::Open(argv[2], {});
  if (!repr.ok()) return Fail(repr.status());
  std::unique_ptr<AdjacencyCursor> cursor = repr.value()->NewCursor();
  LinkView links;
  Status status = cursor->Links(page, &links);
  if (!status.ok()) return Fail(status);
  WebGraph graph;
  bool have_urls = false;
  if (argc >= 5) {
    auto loaded = LoadWebGraph(argv[4]);
    if (!loaded.ok()) return Fail(loaded.status());
    graph = std::move(loaded).value();
    have_urls = true;
  }
  std::printf("page %u has %zu out-links:\n", page, links.size());
  for (PageId q : links) {
    if (have_urls && q < graph.num_pages()) {
      std::printf("  %u  %s\n", q, graph.url(q).c_str());
    } else {
      std::printf("  %u\n", q);
    }
  }
  return 0;
}

int CmdPageRank(int argc, char** argv) {
  if (argc < 3) return Usage();
  Flags flags = CommandFlags(argc, argv, 1);
  size_t top = flags.Numeric<size_t>("--top", 10, 0, SIZE_MAX);
  flags.RejectUnconsumed();
  auto repr = SNodeRepr::Open(argv[2], {});
  if (!repr.ok()) return Fail(repr.status());
  auto ranks = ComputePageRank(repr.value().get());
  if (!ranks.ok()) return Fail(ranks.status());
  const std::vector<double>& rank = ranks.value();
  std::vector<PageId> order(rank.size());
  for (PageId p = 0; p < order.size(); ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&rank](PageId a, PageId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return a < b;
  });
  if (top > order.size()) top = order.size();
  std::printf("pagerank over %zu pages (%llu adjacency reads):\n",
              rank.size(),
              static_cast<unsigned long long>(
                  repr.value()->stats().adjacency_requests.value()));
  for (size_t i = 0; i < top; ++i) {
    std::printf("  %2zu. page %-10u %.8f\n", i + 1, order[i], rank[order[i]]);
  }
  return 0;
}

int CmdCompare(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto loaded = LoadWebGraph(argv[2]);
  if (!loaded.ok()) return Fail(loaded.status());
  const WebGraph& graph = loaded.value();
  std::string dir = "/tmp/wgtool_compare";
  Status mk = EnsureDirectory(dir);
  if (!mk.ok()) return Fail(mk);

  std::printf("%-20s %12s\n", "scheme", "bits/edge");
  auto file = UncompressedFileRepr::Build(graph, dir + "/unc", {});
  if (!file.ok()) return Fail(file.status());
  std::printf("%-20s %12.2f\n", "uncompressed-file",
              file.value()->BitsPerEdge());
  auto rel = RelationalRepr::Build(graph, dir + "/rel", {});
  if (!rel.ok()) return Fail(rel.status());
  std::printf("%-20s %12.2f\n", "relational", rel.value()->BitsPerEdge());
  auto huffman = HuffmanRepr::Build(graph);
  std::printf("%-20s %12.2f\n", "plain-huffman", huffman->BitsPerEdge());
  auto link3 = Link3Repr::Build(graph, dir + "/l3", {});
  if (!link3.ok()) return Fail(link3.status());
  std::printf("%-20s %12.2f\n", "link3", link3.value()->BitsPerEdge());
  auto snode = SNodeRepr::Build(graph, dir + "/sn", {});
  if (!snode.ok()) return Fail(snode.status());
  std::printf("%-20s %12.2f\n", "s-node", snode.value()->BitsPerEdge());
  return 0;
}

int CmdSnapshotInit(int argc, char** argv) {
  if (argc < 3) return Usage();
  Flags flags = CommandFlags(argc, argv, 1);
  const char* dir = flags.Value("--dir");
  if (dir == nullptr) return Usage();
  version::SnapshotOptions sopts;
  sopts.build.store.max_file_size =
      flags.Bytes("--max-file-size", sopts.build.store.max_file_size);
  flags.RejectUnconsumed();
  auto graph = LoadWebGraph(argv[2]);
  if (!graph.ok()) return Fail(graph.status());
  auto manager = version::SnapshotManager::Create(dir, graph.value(), sopts);
  if (!manager.ok()) return Fail(manager.status());
  const version::Manifest& m = manager.value()->current()->manifest;
  std::printf("snapshot %s: generation 0 published, %zu sections in %zu "
              "files, %zu pages, %llu links\n",
              dir, m.directory.sections.size(), m.files.size(),
              manager.value()->current()->repr->num_pages(),
              static_cast<unsigned long long>(
                  manager.value()->current()->repr->num_edges()));
  return 0;
}

// Parses the delta-apply text format; `next` is the dense id the first
// addpage line receives.
Result<std::vector<version::DeltaRecord>> ParseDeltaFile(
    const std::string& path, PageId next) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<version::DeltaRecord> batch;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream tokens(line);
    std::string op;
    if (!(tokens >> op) || op[0] == '#') continue;
    auto bad = [&]() -> Status {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": bad delta line: " + line);
    };
    if (op == "addpage") {
      std::string url, host, domain;
      if (!(tokens >> url >> host >> domain)) return bad();
      batch.push_back(version::DeltaRecord::AddPage(next++, std::move(url),
                                                    std::move(host),
                                                    std::move(domain)));
    } else if (op == "rmpage") {
      PageId p;
      if (!(tokens >> p)) return bad();
      batch.push_back(version::DeltaRecord::RemovePage(p));
    } else if (op == "addlink" || op == "rmlink") {
      PageId p, q;
      if (!(tokens >> p >> q)) return bad();
      batch.push_back(op == "addlink" ? version::DeltaRecord::AddLink(p, q)
                                      : version::DeltaRecord::RemoveLink(p, q));
    } else {
      return bad();
    }
  }
  return batch;
}

int CmdDeltaApply(int argc, char** argv) {
  if (argc != 4) return Usage();
  auto manager = version::SnapshotManager::Open(argv[2], {});
  if (!manager.ok()) return Fail(manager.status());
  // New pages take ids past base-plus-pending, matching what the log
  // replay will assign.
  version::DeltaOverlay overlay(manager.value()->current()->repr->num_pages());
  Status pending = manager.value()->BuildPendingOverlay(&overlay);
  if (!pending.ok()) return Fail(pending);
  auto batch =
      ParseDeltaFile(argv[3], static_cast<PageId>(overlay.num_pages()));
  if (!batch.ok()) return Fail(batch.status());
  Status appended = manager.value()->AppendDeltas(batch.value());
  if (!appended.ok()) return Fail(appended);
  std::printf("appended %zu deltas to %s; %llu pending (generation %llu)\n",
              batch.value().size(), argv[2],
              static_cast<unsigned long long>(
                  manager.value()->pending_records()),
              static_cast<unsigned long long>(
                  manager.value()->current()->manifest.generation));
  return 0;
}

int CmdCompact(int argc, char** argv) {
  if (argc != 3) return Usage();
  auto manager = version::SnapshotManager::Open(argv[2], {});
  if (!manager.ok()) return Fail(manager.status());
  uint64_t pending = manager.value()->pending_records();
  auto generation = manager.value()->Compact();
  if (!generation.ok()) return Fail(generation.status());
  const version::Manifest& m = generation.value()->manifest;
  if (pending == 0) {
    std::printf("nothing pending; generation %llu unchanged\n",
                static_cast<unsigned long long>(m.generation));
    return 0;
  }
  std::printf("generation %llu: folded %llu deltas, shared %llu sections, "
              "wrote %llu, %zu pages, %llu links\n",
              static_cast<unsigned long long>(m.generation),
              static_cast<unsigned long long>(pending),
              static_cast<unsigned long long>(m.sections_shared),
              static_cast<unsigned long long>(m.sections_written),
              generation.value()->repr->num_pages(),
              static_cast<unsigned long long>(
                  generation.value()->repr->num_edges()));
  return 0;
}

int CmdSnapshots(int argc, char** argv) {
  if (argc != 3) return Usage();
  std::string dir = argv[2];
  auto manager = version::SnapshotManager::Open(dir, {});
  if (!manager.ok()) return Fail(manager.status());
  uint64_t live = manager.value()->current()->manifest.generation;
  std::printf("%-4s %-12s %8s %8s %8s %8s %12s\n", "", "generation",
              "files", "sections", "shared", "written", "log-applied");
  for (uint64_t g = 0; g <= live; ++g) {
    char name[32];
    std::snprintf(name, sizeof(name), "MANIFEST-%06llu",
                  static_cast<unsigned long long>(g));
    auto m = version::Manifest::ReadFrom(dir + "/" + name);
    if (!m.ok()) continue;  // compacted away / never existed
    std::printf("%-4s %-12llu %8zu %8zu %8llu %8llu %12llu\n",
                g == live ? "*" : "",
                static_cast<unsigned long long>(m.value().generation),
                m.value().files.size(),
                m.value().directory.sections.size(),
                static_cast<unsigned long long>(m.value().sections_shared),
                static_cast<unsigned long long>(m.value().sections_written),
                static_cast<unsigned long long>(m.value().log_applied));
  }
  std::printf("log: %llu records, %llu pending\n",
              static_cast<unsigned long long>(manager.value()->log_records()),
              static_cast<unsigned long long>(
                  manager.value()->pending_records()));
  return 0;
}

int CmdScrub(int argc, char** argv) {
  if (argc != 3) return Usage();
  std::string path = argv[2];
  bool is_snapshot = ::access((path + "/CURRENT").c_str(), F_OK) == 0;
  version::ScrubReport report;
  Status scrubbed = is_snapshot
                        ? version::ScrubSnapshotDir(path, &report)
                        : version::ScrubSNodeStore(path, &report);
  if (!scrubbed.ok()) return Fail(scrubbed);
  std::printf("%s: %s%s", path.c_str(),
              is_snapshot ? "snapshot (live generation)\n" : "s-node store\n",
              report.ToString().c_str());
  if (!report.clean()) {
    std::fprintf(stderr, "scrub: %zu damaged sections in %s\n",
                 report.errors.size(), path.c_str());
    return 1;
  }
  return 0;
}

int CmdGc(int argc, char** argv) {
  if (argc < 3) return Usage();
  Flags flags = CommandFlags(argc, argv, 1);
  version::GcOptions gopts;
  gopts.apply = flags.Has("--apply");
  flags.RejectUnconsumed();
  version::GcReport report;
  Status collected = version::CollectGarbage(argv[2], gopts, &report);
  if (!collected.ok()) return Fail(collected);
  std::printf("%s: %llu packs scanned, %llu referenced, %zu unreferenced\n",
              argv[2],
              static_cast<unsigned long long>(report.packs_scanned),
              static_cast<unsigned long long>(report.packs_referenced),
              report.candidates.size());
  for (const std::string& name : report.candidates) {
    std::printf("  %s %s\n", gopts.apply ? "removed" : "would remove",
                name.c_str());
  }
  if (gopts.apply) {
    std::printf("reclaimed %.1f MB in %llu packs\n",
                report.bytes_reclaimed / (1024.0 * 1024.0),
                static_cast<unsigned long long>(report.packs_removed));
  } else if (!report.candidates.empty()) {
    std::printf("dry run: %.1f MB reclaimable; rerun with --apply\n",
                report.bytes_reclaimable / (1024.0 * 1024.0));
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc, argv);
  if (command == "stats") return CmdStats(argc, argv);
  if (command == "build") return CmdBuild(argc, argv);
  if (command == "info") return CmdInfo(argc, argv);
  if (command == "links") return CmdLinks(argc, argv);
  if (command == "pagerank") return CmdPageRank(argc, argv);
  if (command == "compare") return CmdCompare(argc, argv);
  if (command == "snapshot-init") return CmdSnapshotInit(argc, argv);
  if (command == "delta-apply") return CmdDeltaApply(argc, argv);
  if (command == "compact") return CmdCompact(argc, argv);
  if (command == "snapshots") return CmdSnapshots(argc, argv);
  if (command == "scrub") return CmdScrub(argc, argv);
  if (command == "gc") return CmdGc(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace wg

int main(int argc, char** argv) { return wg::Main(argc, argv); }
