// wgserve — drive the concurrent query service over an S-Node store.
//
//   wgserve --pages N [--seed S] [options]
//       Generate a synthetic crawl, build forward/backward S-Node
//       representations (in /tmp/wgserve_<pid>, removed at exit), then
//       serve a workload against them.
//   wgserve --crawl crawl.wg [options]
//       Same, starting from a saved crawl.
//   wgserve --snapshot DIR [options]
//       Serve the live generation of a versioned snapshot store (made by
//       `wgtool snapshot-init`). A poller watches the store's CURRENT
//       pointer; when another process publishes a new generation (`wgtool
//       compact`), the service flips to it between requests -- in-flight
//       requests drain on the generation they pinned. Forward-only: the
//       synthetic mix drops in-neighbor requests, and request files must
//       avoid `in`/`query` lines.
//       Every candidate generation is scrubbed (pread + CRC of all blobs)
//       before install; a corrupt generation fails the flip and the
//       process keeps serving the last good one in degraded mode: the
//       wg_degraded gauge goes to 1 and the --health-file (if given)
//       leads with "degraded" until a later flip succeeds. Run `wgtool
//       scrub` and re-compact to repair.
//
// options:
//   --auto-compact-backlog N  (snapshot mode) compact in-process when the
//                     delta-log backlog (records appended but not folded
//                     into the live generation, i.e. pending_records)
//                     reaches N. The poller runs the compaction between
//                     ticks and flips to the new generation through the
//                     same swap path as an external `wgtool compact`; a
//                     failed compaction backs off ~5 s before retrying.
//                     0 (default) disables.
//   --workers W       worker threads (default 4)
//   --queue C         admission queue capacity (default 256)
//   --requests R      synthetic workload size (default 20000)
//   --theta T         Zipf skew of the synthetic workload (default 0.8)
//   --khop K          hop count for k-hop requests (default 2)
//   --file PATH       replay a request file instead of the synthetic mix
//                     (lines: "out <page>", "in <page>", "khop <page> <k>",
//                      "query <1..6>"; '#' comments)
//   --deadline-ms D   attach a deadline of now+D ms to every request
//   --buffer BYTES    decoded-graph cache budget per representation
//   --decode-ahead N  on a streaming cursor miss, background-decode the
//                     next N sections in layout order (default 0 = off)
//   --admin-port P    serve the live introspection plane on
//                     127.0.0.1:P (0 = kernel-assigned; the bound port is
//                     printed): /metrics, /metrics.json, /healthz,
//                     /statusz, /tracez, /pprof/profile?seconds=N.
//                     Enables the tracez ring, and (unless --profile-hz 0)
//                     the always-on sampling profiler.
//   --profile-hz H    SIGPROF sampling rate for /pprof/profile (default
//                     97 when --admin-port is set; 0 disables)
//   --slow-us T       tracez slow threshold in microseconds: every
//                     request at or above it is pinned into /tracez's
//                     slow list and becomes the latency histogram's
//                     exemplar (default 10000)
//   --linger S        keep serving the admin plane S seconds after the
//                     workload drains (scrape window for probes/tests)
//   --health-file F   rewrite F (atomically, via temp + rename) after
//                     open and every flip attempt with
//                     "ok|degraded generation=<id> [reason=<text>]" -- a
//                     file-based health endpoint for probes ("cat F")
//                     that agrees with /healthz
//   --metrics-out F   write the metric registry to F; ".json" suffix
//                     selects the JSON form, anything else the Prometheus
//                     text form. Rewritten atomically (temp + rename)
//                     every --metrics-interval seconds and at exit, so a
//                     killed process still leaves fresh metrics on disk
//   --metrics-interval S  seconds between periodic --metrics-out rewrites
//                     (default 10; 0 = write only at exit)
//   --trace-out F     write sampled request traces to F as Chrome
//                     trace-event JSONL (open in Perfetto or
//                     chrome://tracing)
//   --trace-sample N  trace every Nth request (default 16; 1 = all;
//                     must be >= 1)
//
// A numeric flag whose value is not a number, or lies outside the flag's
// range, and any argument that is not one of the flags above, print the
// usage and exit 2 before anything is built.
//
// Prints a per-outcome tally, service metrics (queue depth, p50/p99,
// cache hit rate), and end-to-end throughput. Everything but flag parsing,
// the local store build and the closed-loop request loop lives in
// server::Server (src/server/server.h).

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "server/query_service.h"
#include "server/server.h"
#include "server/workload.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/pagerank.h"

namespace wg {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wgserve (--pages N [--seed S] | --crawl crawl.wg |\n"
               "                --snapshot DIR)\n"
               "               [--auto-compact-backlog N]\n"
               "               [--workers W] [--queue C] [--requests R]\n"
               "               [--theta T] [--khop K] [--file PATH]\n"
               "               [--deadline-ms D] [--buffer BYTES]\n"
               "               [--decode-ahead N]\n"
               "               [--admin-port P] [--profile-hz H]\n"
               "               [--slow-us T] [--linger S]\n"
               "               [--health-file FILE] [--metrics-out FILE]\n"
               "               [--metrics-interval S]\n"
               "               [--trace-out FILE] [--trace-sample N]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, 1, Usage);
  const char* pages = flags.Value("--pages");
  const char* crawl = flags.Value("--crawl");
  server::ServerOptions sopts;
  sopts.snapshot = flags.String("--snapshot");
  const bool snapshot = !sopts.snapshot.empty();
  if (snapshot) {
    if (pages != nullptr || crawl != nullptr) return Usage();
  } else if ((pages == nullptr) == (crawl == nullptr)) {
    return Usage();
  }

  // Validate every flag before the expensive store build.
  constexpr uint32_t kMaxPages = UINT32_MAX - 1;
  const size_t num_pages_flag =
      flags.Numeric<size_t>("--pages", 0, 1, kMaxPages);
  const uint64_t seed = flags.Numeric<uint64_t>(
      "--seed", GeneratorOptions().seed, 0, UINT64_MAX);
  sopts.auto_compact_backlog =
      flags.Numeric<uint64_t>("--auto-compact-backlog", 0, 1, UINT64_MAX);
  if (sopts.auto_compact_backlog > 0 && !snapshot) {
    std::fprintf(stderr,
                 "wgserve: --auto-compact-backlog requires --snapshot\n");
    return 1;
  }
  sopts.workers = flags.Numeric<size_t>("--workers", 4, 1, 1024);
  sopts.queue = flags.Numeric<size_t>("--queue", 256, 1, 1 << 24);
  sopts.buffer_bytes =
      flags.Numeric<size_t>("--buffer", 4 << 20, 0, size_t{1} << 40);
  sopts.decode_ahead = flags.Numeric<int>("--decode-ahead", 0, 0, 1 << 20);
  sopts.admin_port = flags.Numeric<int>("--admin-port", -1, 0, 65535);
  // The profiler runs by default whenever the admin plane does.
  sopts.profile_hz = flags.Numeric<int>(
      "--profile-hz", sopts.admin_port >= 0 ? 97 : 0, 0, 1000);
  sopts.slow_us = flags.Numeric<double>("--slow-us", 10000, 0, 1e12);
  sopts.health_file = flags.String("--health-file");
  sopts.metrics_out = flags.String("--metrics-out");
  sopts.metrics_interval =
      flags.Numeric<int>("--metrics-interval", 10, 0, 1 << 24);
  sopts.trace_out = flags.String("--trace-out");
  // 0 would disable sampling entirely, silently producing an empty trace
  // despite --trace-out.
  sopts.trace_sample =
      flags.Numeric<uint64_t>("--trace-sample", 16, 1, UINT64_MAX);
  server::WorkloadOptions wopts;
  wopts.num_requests =
      flags.Numeric<size_t>("--requests", 20000, 1, size_t{1} << 32);
  wopts.zipf_theta =
      flags.Numeric<double>("--theta", wopts.zipf_theta, 0, 100);
  wopts.khop_k = flags.Numeric<int>("--khop", wopts.khop_k, 1, 64);
  const long deadline_ms =
      flags.Numeric<long>("--deadline-ms", 0, 0, 1L << 31);
  const long linger_seconds = flags.Numeric<long>("--linger", 0, 0, 1L << 31);
  const char* request_file = flags.Value("--file");
  flags.RejectUnconsumed();

  // Local-build mode: the crawl, its transpose and text stack, and both
  // S-Node stores live here for the server's whole life.
  WebGraph graph;
  WebGraph transpose;
  Corpus corpus;
  InvertedIndex index;
  std::vector<double> pagerank;
  // The local build's store directory, removed on every way out of Main
  // once the server and both stores (declared below) are gone.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      if (!dir.empty()) std::filesystem::remove_all(dir, ignored);
    }
  } store_dir;
  std::unique_ptr<SNodeRepr> forward;
  std::unique_ptr<SNodeRepr> backward;
  std::unique_ptr<server::Server> server;
  if (snapshot) {
    auto opened = server::Server::OpenSnapshot(sopts);
    if (!opened.ok()) return Fail(opened.status());
    server = std::move(opened).value();
  } else {
    if (crawl != nullptr) {
      auto loaded = LoadWebGraph(crawl);
      if (!loaded.ok()) return Fail(loaded.status());
      graph = std::move(loaded).value();
    } else {
      GeneratorOptions gopts;
      gopts.num_pages = num_pages_flag;
      gopts.seed = seed;
      graph = GenerateWebGraph(gopts);
    }
    std::printf("graph: %zu pages, %llu links\n", graph.num_pages(),
                static_cast<unsigned long long>(graph.num_edges()));

    transpose = graph.Transpose();
    corpus = Corpus::Generate(graph, CorpusOptions());
    index = InvertedIndex::Build(corpus);
    pagerank = ComputePageRank(graph);

    std::string dir = "/tmp/wgserve_" + std::to_string(getpid());
    Status mk = EnsureDirectory(dir);
    if (!mk.ok()) return Fail(mk);
    store_dir.dir = dir;
    SNodeBuildOptions bopts;
    bopts.buffer_bytes = sopts.buffer_bytes;
    bopts.decode_ahead_sections = sopts.decode_ahead;
    auto fwd = SNodeRepr::Build(graph, dir + "/fwd", bopts);
    if (!fwd.ok()) return Fail(fwd.status());
    forward = std::move(fwd).value();
    auto bwd = SNodeRepr::Build(transpose, dir + "/bwd", bopts);
    if (!bwd.ok()) return Fail(bwd.status());
    backward = std::move(bwd).value();
    std::printf("s-node: %u supernodes, cache budget %zu bytes\n",
                forward->supernode_graph().num_supernodes(),
                bopts.buffer_bytes);

    QueryContext query;
    query.graph = &graph;
    query.corpus = &corpus;
    query.index = &index;
    query.pagerank = &pagerank;
    auto served = server::Server::ServeBuilt(sopts, forward.get(),
                                             backward.get(), query);
    if (!served.ok()) return Fail(served.status());
    server = std::move(served).value();
  }

  std::vector<server::Request> requests;
  if (request_file != nullptr) {
    auto parsed = server::ParseRequestFile(request_file, server->num_pages());
    if (!parsed.ok()) return Fail(parsed.status());
    requests = std::move(parsed).value();
  } else {
    wopts.num_pages = server->num_pages();
    // A snapshot store is forward-only (no transpose generation yet).
    if (snapshot) wopts.in_weight = 0;
    requests = server::SyntheticWorkload(wopts);
  }
  server->StartPoller();

  std::printf("serving %zu requests on %zu workers (queue %zu)...\n",
              requests.size(), sopts.workers, sopts.queue);

  // Closed-loop driver: keep at most one queue's worth of requests
  // outstanding so the admission queue exercises depth, not overflow.
  // (Overflow behaviour is what --deadline-ms and the tests poke at.)
  server::QueryService& service = server->service();
  auto start = std::chrono::steady_clock::now();
  size_t tally[4] = {0, 0, 0, 0};
  uint64_t pages_returned = 0;
  size_t total = requests.size();
  std::deque<std::future<server::Response>> outstanding;
  auto harvest = [&] {
    server::Response response = outstanding.front().get();
    outstanding.pop_front();
    ++tally[static_cast<int>(response.code)];
    pages_returned += response.pages.size();
  };
  for (server::Request request : requests) {
    if (deadline_ms > 0) {
      request.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(deadline_ms);
    }
    if (outstanding.size() >= sopts.queue) harvest();
    outstanding.push_back(service.Submit(request));
  }
  while (!outstanding.empty()) harvest();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (linger_seconds > 0) {
    std::printf("lingering %ld s (admin plane stays up)...\n",
                linger_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_seconds));
  }

  server->Drain();
  std::printf("\noutcome:\n");
  for (int c = 0; c < 4; ++c) {
    std::printf("  %-18s %zu\n",
                server::ResponseCodeName(static_cast<server::ResponseCode>(c)),
                tally[c]);
  }
  std::printf("pages returned:     %llu\n",
              static_cast<unsigned long long>(pages_returned));
  std::printf("wall time:          %.3f s (%.0f req/s)\n", seconds,
              total / seconds);
  Status stopped = server->Stop();
  if (!stopped.ok()) return Fail(stopped);
  return 0;
}

}  // namespace
}  // namespace wg

int main(int argc, char** argv) { return wg::Main(argc, argv); }
