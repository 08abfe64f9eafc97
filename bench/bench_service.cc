// Concurrent query service: throughput scaling of the worker pool over a
// shared S-Node store, plus a correctness cross-check of every concurrent
// run against the single-threaded inline path.
//
// Two regimes:
//
//  * cpu-bound -- decoded-graph navigation straight out of the sharded
//    cache. Scaling here needs physical cores: the store's disk reads are
//    page-cache hits at 1:1000 scale, so the workers contend for CPU, not
//    for the spindle. On a single-core host this regime cannot speed up
//    and the shape check documents that instead of failing.
//
//  * disk-wait -- each request additionally blocks for the modeled
//    2001-era disk time of an average request (bench_common.h constants,
//    measured off the single-threaded run), inside the representation
//    where real I/O waits: the first read of every cursor stalls. This is
//    the paper-era serving scenario: requests spend most of their life
//    waiting on the disk, and the pool overlaps those waits, so
//    throughput scales with workers even on one core.
//
// Claim checked: >1.5x throughput at 4 workers vs 1, with results
// identical to the single-threaded path.
//
// --metrics-json FILE additionally writes the sweep as machine-readable
// JSON in the same schema family as BENCH_build.json.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "server/query_service.h"
#include "server/workload.h"
#include "snode/snode_repr.h"

namespace wg {
namespace {

constexpr size_t kPages = 50000;
constexpr size_t kBudget = 256 << 10;  // per direction; forces evictions
constexpr size_t kCpuRequests = 6000;
constexpr size_t kDiskRequests = 1200;
const size_t kWorkerSweep[] = {1, 2, 4, 8};

uint64_t HashPages(const std::vector<PageId>& pages) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (PageId p : pages) {
    h = (h ^ p) * 1099511628211ull;
  }
  return h;
}

// Forwards to `base`; each cursor stalls for `stall` before its first
// read, the modeled disk wait of one request.
class StallingRepr : public GraphRepresentation {
 public:
  StallingRepr(GraphRepresentation* base, std::chrono::microseconds stall)
      : base_(base), stall_(stall) {}

  std::string name() const override { return base_->name(); }
  size_t num_pages() const override { return base_->num_pages(); }
  uint64_t num_edges() const override { return base_->num_edges(); }
  uint64_t LocalityKey(PageId p) const override {
    return base_->LocalityKey(p);
  }
  std::unique_ptr<AdjacencyCursor> NewCursor() override {
    return std::make_unique<Cursor>(base_->NewCursor(), stall_);
  }
  Status PagesInDomain(const std::string& domain,
                       std::vector<PageId>* out) override {
    return base_->PagesInDomain(domain, out);
  }
  uint64_t encoded_bits() const override { return base_->encoded_bits(); }
  size_t resident_memory() const override { return 0; }

 private:
  class Cursor : public AdjacencyCursor {
   public:
    Cursor(std::unique_ptr<AdjacencyCursor> inner,
           std::chrono::microseconds stall)
        : inner_(std::move(inner)), stall_(stall) {}
    Status Links(PageId p, LinkView* view) override {
      std::this_thread::sleep_for(stall_);
      stall_ = std::chrono::microseconds(0);
      return inner_->Links(p, view);
    }

   private:
    std::unique_ptr<AdjacencyCursor> inner_;
    std::chrono::microseconds stall_;
  };

  GraphRepresentation* base_;
  std::chrono::microseconds stall_;
};

// Clears the S-Node reprs' caches and counters before a run.
void ResetReprs(const QueryContext& reprs) {
  reprs.forward->ClearBuffers();
  reprs.forward->stats().Reset();
  if (reprs.backward != nullptr) {
    reprs.backward->ClearBuffers();
    reprs.backward->stats().Reset();
  }
}

struct RunResult {
  double seconds = 0;
  std::vector<uint64_t> hashes;
  server::ServiceMetrics metrics;
};

// Drives `requests` through a fresh pool of `workers` serving `ctx`,
// closed-loop with at most one queue's worth outstanding so nothing is
// rejected. `reprs` are the S-Node reprs behind `ctx` (the same ones, or
// the ones its stalling reprs forward to): their caches start cold, and
// the reported hit rate is theirs.
RunResult RunPool(const QueryContext& ctx, const QueryContext& reprs,
                  size_t workers,
                  const std::vector<server::Request>& requests) {
  ResetReprs(reprs);
  server::QueryServiceOptions opts;
  opts.num_workers = workers;
  opts.queue_capacity = 1024;
  server::QueryService service(ctx, opts);

  RunResult run;
  run.hashes.reserve(requests.size());
  std::deque<std::future<server::Response>> outstanding;
  auto harvest = [&] {
    server::Response response = outstanding.front().get();
    outstanding.pop_front();
    bench::CheckOk(response.code == server::ResponseCode::kOk
                       ? Status::OK()
                       : Status::Internal("request failed: " +
                                          response.status.ToString()));
    run.hashes.push_back(HashPages(response.pages));
  };
  bench::Timer timer;
  for (const server::Request& request : requests) {
    if (outstanding.size() >= opts.queue_capacity) harvest();
    outstanding.push_back(service.Submit(request));
  }
  while (!outstanding.empty()) harvest();
  run.seconds = timer.Seconds();
  run.metrics = service.Snapshot();
  const ReprStats& stats = reprs.forward->stats();
  uint64_t lookups = stats.cache_hits + stats.cache_misses;
  run.metrics.cache_hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cache_hits) /
                         static_cast<double>(lookups);
  return run;
}

// The single-threaded reference: the same requests through the inline
// Execute path, no pool involved.
RunResult RunInline(const QueryContext& ctx, const QueryContext& reprs,
                    const std::vector<server::Request>& requests) {
  ResetReprs(reprs);
  server::QueryServiceOptions opts;
  opts.num_workers = 1;
  server::QueryService service(ctx, opts);
  RunResult run;
  run.hashes.reserve(requests.size());
  bench::Timer timer;
  for (const server::Request& request : requests) {
    server::Response response = service.Execute(request);
    bench::CheckOk(response.code == server::ResponseCode::kOk
                       ? Status::OK()
                       : Status::Internal(response.status.ToString()));
    run.hashes.push_back(HashPages(response.pages));
  }
  run.seconds = timer.Seconds();
  return run;
}

// One sweep row, kept for the optional --metrics-json dump.
struct SweepRow {
  size_t workers = 0;
  double seconds = 0;
  double rps = 0;
  double speedup_vs_1 = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cache_hit_rate = 0;
};

struct RegimeResult {
  const char* name = nullptr;
  size_t requests = 0;
  double inline_rps = 0;
  bool all_identical = true;
  double speedup4 = 0;
  std::vector<SweepRow> rows;
};

// Runs the worker sweep for one regime; records speedup of 4 workers over
// 1 worker and whether every run matched the reference hashes.
RegimeResult RunRegime(const char* name, const QueryContext& ctx,
                       const QueryContext& reprs,
                       const std::vector<server::Request>& requests) {
  RegimeResult regime;
  regime.name = name;
  regime.requests = requests.size();
  RunResult reference = RunInline(ctx, reprs, requests);
  regime.inline_rps = requests.size() / reference.seconds;
  std::printf("[%s] %zu requests, inline single-threaded: %.3f s "
              "(%.0f req/s)\n",
              name, requests.size(), reference.seconds, regime.inline_rps);

  std::printf("%-10s %10s %12s %10s %10s %10s %9s\n", "workers", "time(s)",
              "req/s", "speedup", "p50(ms)", "p99(ms)", "hit rate");
  double base = 0;
  for (size_t workers : kWorkerSweep) {
    RunResult run = RunPool(ctx, reprs, workers, requests);
    bool identical = run.hashes == reference.hashes;
    regime.all_identical = regime.all_identical && identical;
    SweepRow row;
    row.workers = workers;
    row.seconds = run.seconds;
    row.rps = requests.size() / run.seconds;
    if (workers == 1) base = row.rps;
    row.speedup_vs_1 = base > 0 ? row.rps / base : 0;
    if (workers == 4) regime.speedup4 = row.speedup_vs_1;
    row.p50_us = run.metrics.p50_seconds * 1e6;
    row.p99_us = run.metrics.p99_seconds * 1e6;
    row.cache_hit_rate = run.metrics.cache_hit_rate;
    regime.rows.push_back(row);
    std::printf("%-10zu %10.3f %12.0f %9.2fx %10.2f %10.2f %8.1f%%%s\n",
                workers, run.seconds, row.rps, row.speedup_vs_1,
                run.metrics.p50_seconds * 1e3, run.metrics.p99_seconds * 1e3,
                run.metrics.cache_hit_rate * 100,
                identical ? "" : "  RESULTS DIFFER");
  }
  return regime;
}

// Machine-readable dump in the BENCH_build.json schema family.
void WriteMetricsJson(const char* path, const WebGraph& graph,
                      const std::vector<RegimeResult>& regimes) {
  std::FILE* json = std::fopen(path, "w");
  bench::CheckOk(json != nullptr
                     ? Status::OK()
                     : Status::IOError(std::string("cannot write ") + path));
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"bench_service\",\n"
               "  %s,\n"
               "  \"pages\": %zu,\n"
               "  \"edges\": %llu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"regimes\": [\n",
               bench::ProvenanceJsonFields().c_str(), graph.num_pages(),
               static_cast<unsigned long long>(graph.num_edges()),
               std::thread::hardware_concurrency());
  for (size_t r = 0; r < regimes.size(); ++r) {
    const RegimeResult& regime = regimes[r];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"requests\": %zu,\n"
                 "     \"inline_rps\": %.1f, \"identical\": %s,\n"
                 "     \"speedup_4_over_1\": %.3f,\n"
                 "     \"runs\": [\n",
                 regime.name, regime.requests, regime.inline_rps,
                 regime.all_identical ? "true" : "false", regime.speedup4);
    for (size_t i = 0; i < regime.rows.size(); ++i) {
      const SweepRow& row = regime.rows[i];
      std::fprintf(json,
                   "      {\"workers\": %zu, \"seconds\": %.4f, "
                   "\"rps\": %.1f, \"speedup_vs_1\": %.3f, "
                   "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                   "\"cache_hit_rate\": %.4f}%s\n",
                   row.workers, row.seconds, row.rps, row.speedup_vs_1,
                   row.p50_us, row.p99_us, row.cache_hit_rate,
                   i + 1 < regime.rows.size() ? "," : "");
    }
    std::fprintf(json, "     ]}%s\n", r + 1 < regimes.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path);
}

void Run(const char* metrics_json) {
  bench::PrintHeader("service: worker-pool throughput over one S-Node store");
  WebGraph graph = bench::FullCrawl().InducedPrefix(kPages);
  WebGraph transpose = graph.Transpose();
  std::string dir = bench::BenchDir();

  SNodeBuildOptions opts;
  opts.buffer_bytes = kBudget;
  opts.threads = 0;  // build with all cores; output is thread-count invariant
  auto forward =
      bench::UnwrapOrDie(SNodeRepr::Build(graph, dir + "/svc_f", opts));
  auto backward =
      bench::UnwrapOrDie(SNodeRepr::Build(transpose, dir + "/svc_b", opts));

  QueryContext ctx;
  ctx.forward = forward.get();
  ctx.backward = backward.get();
  ctx.graph = &graph;

  server::WorkloadOptions wopts;
  wopts.num_pages = graph.num_pages();
  wopts.num_requests = kCpuRequests;
  std::vector<server::Request> cpu_requests = server::SyntheticWorkload(wopts);

  RegimeResult cpu = RunRegime("cpu-bound", ctx, ctx, cpu_requests);

  // Disk-wait regime: every request blocks for the modeled disk time of an
  // average cold request, measured from the single-threaded run above --
  // one seek plus the average transfer (I/O counts survive in the repr
  // stats of the last pool run; re-measure inline for a clean read).
  RunResult probe = RunInline(ctx, ctx, cpu_requests);
  const ReprStats& fstats = ctx.forward->stats();
  const ReprStats& bstats = ctx.backward->stats();
  double modeled_io_seconds =
      (fstats.disk_seeks + bstats.disk_seeks) * bench::kSeekSeconds +
      static_cast<double>(fstats.disk_transfer_bytes +
                          bstats.disk_transfer_bytes) /
          bench::kBytesPerSecond;
  double per_request = modeled_io_seconds / cpu_requests.size();
  // Clamp so the regime stays disk-dominated but the sweep finishes fast.
  per_request = std::clamp(per_request, 0.0005, 0.004);
  std::printf("\nmodeled disk time: %.3f s over %zu requests -> %.2f ms "
              "per request applied as blocking wait\n",
              modeled_io_seconds, cpu_requests.size(), per_request * 1e3);

  wopts.num_requests = kDiskRequests;
  std::vector<server::Request> disk_requests = server::SyntheticWorkload(wopts);
  const std::chrono::microseconds stall(
      static_cast<int64_t>(per_request * 1e6));
  StallingRepr stalling_forward(forward.get(), stall);
  StallingRepr stalling_backward(backward.get(), stall);
  QueryContext stalling = ctx;
  stalling.forward = &stalling_forward;
  stalling.backward = &stalling_backward;
  RegimeResult disk = RunRegime("disk-wait", stalling, ctx, disk_requests);

  std::printf("\n");
  bench::PrintShapeCheck(cpu.all_identical && disk.all_identical,
                         "concurrent results identical to the "
                         "single-threaded path at every pool size");
  unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 2) {
    bench::PrintShapeCheck(
        cpu.speedup4 > 1.5,
        "cpu-bound: >1.5x throughput at 4 workers vs 1");
  } else {
    bench::PrintShapeCheckDocumented(
        cpu.speedup4 > 1.5, "cpu-bound: >1.5x throughput at 4 workers vs 1",
        "host has 1 core; the cpu-bound regime has no parallelism to "
        "harvest, the disk-wait regime below carries the claim");
  }
  bench::PrintShapeCheck(disk.speedup4 > 1.5,
                         "disk-wait: >1.5x throughput at 4 workers vs 1 "
                         "(pool overlaps modeled disk waits)");

  if (metrics_json != nullptr) {
    WriteMetricsJson(metrics_json, graph, {cpu, disk});
  }
}

}  // namespace
}  // namespace wg

int main(int argc, char** argv) {
  const char* metrics_json = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_json = argv[i + 1];
    }
  }
  wg::Run(metrics_json);
  return wg::bench::ShapeExitCode();
}
