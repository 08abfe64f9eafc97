// wgbench: the measuring half of the repository benchmark. perfbench/run.py
// builds it, calls `prepare` for the set-up and `run` for the measurement,
// and prints the result line.
//
//   wgbench prepare --workload W --seed S --dir D
//       Generates the workload's crawls from the seed, one per round, and
//       writes them and their transposes as WGG1 files under D.
//       Nothing else: every store is built by the code under test in `run`.
//
//   wgbench run --workload W --seed S --dir D --seconds T --trace 0|1
//       Serves with nproc - 1 QueryService workers plus the generator
//       thread and builds with nproc threads. Every workload goes through
//       the same life cycle of the system, so every metric is measured on
//       every workload; the workloads differ in crawl size, cache budget,
//       page skew and in how the time is split:
//         set-up  build the crawls' backward stores, open crawl 0's
//                 stores for serving, warm up;
//         rounds  each: build crawl r's forward store (build_s,
//                 bits_per_edge), a fixed-iteration ComputePageRank scan of
//                 it (scan_s), a segment of open-loop Poisson traffic at the
//                 fixed nominal rate (lat_p50_ms, lat_p99_ms), and a second
//                 scan; peak_rss_mb afterwards;
//         ladder  a staircase of rungs over a fixed ladder of rates
//                 (slo_rps), interleaved with one block of passes over
//                 the six Table-3 queries (suite_ms) per crawl and with
//                 more scans of the last crawl.
//       Repetitions are spread over the run and every metric is a median
//       or a lower quartile over them: on a shared host memory-bound work
//       runs 10-60% slower for seconds at a time, and a crawl's build cost
//       depends on the crawl.
//       With --trace 1 the ladder is skipped; instead one build, three
//       scans, one nominal rung and the suite passes run with the
//       obs::Tracer ring collecting every span, and the per-layer metrics
//       come from those records and from the library's public counters.
//
//   wgbench build --crawl F --store P --threads N --trace 0|1 --report R
//       One BuildStreaming of crawl file F into store P; writes "key value"
//       lines to R. `run` re-executes itself with this command for every
//       build, so that each build's VmHWM is its own.
//
// The last stdout line of `prepare` and `run` is one JSON object; run.py
// turns it into the benchmark's result line. Rung summaries go to stderr.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/edge_source.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "query/queries.h"
#include "repr/huffman_repr.h"
#include "server/query_service.h"
#include "server/workload.h"
#include "snode/snode_repr.h"
#include "snode/streaming_build.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/pagerank.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wg::GraphRepresentation;
using wg::PageId;
using wg::QueryContext;
using wg::SNodeRepr;
using wg::Status;
using wg::WebGraph;
using wg::server::QueryService;
using wg::server::Request;
using wg::server::RequestType;
using wg::server::Response;
using wg::server::ResponseCode;

// ---------------------------------------------------------------------------
// Workloads. Every constant here is fixed at this commit. Rates are offered
// rates, not shares of a measured capacity, so a faster program is offered
// the same load and shows up as lower latency and a higher slo_rps.

struct Workload {
  const char* name;
  size_t pages;
  size_t cache_bytes;      // decoded-graph budget per direction
  double zipf_theta;       // request page skew (0 = uniform)
  bool cold;               // scans and suite passes start from empty caches;
                           // otherwise from warm ones
  int scan_iterations;     // PageRank sweeps per scan, early stop off
  double nominal_rps;      // the latency rung: about 30% of the capacity
  double ladder_rps;       // rate k = 0 of the staircase: about half of it
  double p99_limit_ms;     // the latency limit of slo_rps
  double window_s;         // evaluation window within a rung
  double nominal_share;    // of --seconds, split evenly over the rounds
  double ladder_share;     // of --seconds, for the staircase
  double probe_s;          // one staircase rung
  double suite_share;      // of --seconds, for the suite passes
};

// Windows hold at least 1000 requests at the nominal rate, so that each
// window's p99 has ten samples beyond it. The nominal rates sit at about 30%
// of capacity rather than half: nearer saturation, queueing turns the
// host's 10-30% swings in speed into far larger swings of the p99.
const Workload kWorkloads[] = {
    // The whole decoded store fits the cache; after warm-up every read hits.
    // Not in BENCHMARK.json: its microsecond latencies swing with the
    // host's contention by more than the bounds (see README.md).
    {"serve-hot", 200000, size_t{64} << 20, 0.8, false, 6, 150000, 250000, 1.0,
     0.02, 0.30, 0.45, 0.3, 0.10},
    // Uniform pages against a 256 KiB cache: nearly every request decodes.
    {"serve-cold", 200000, size_t{256} << 10, 0.0, true, 2, 1600, 3000, 10.0,
     0.65, 0.80, 0.50, 0.35, 0.25},
    // A larger crawl whose builds and sequential scans dominate the run; the
    // stores open with the default 4 MiB budget, as wgtool does.
    {"build-scan", 400000, size_t{4} << 20, 0.0, true, 2, 1800, 3300, 10.0,
     0.60, 0.80, 0.35, 0.35, 0.15},
};

// Rounds of a run. Each builds and scans a crawl of its own and serves a
// nominal segment, and the suite queries every round's crawl in turn: a
// suite pass costs what the crawl's query answers touch, which differs from
// crawl to crawl by up to 40%.
constexpr int kRounds = 4;

// Working memory of every build (BuildMemoryBudget).
constexpr size_t kBuildBudgetBytes = size_t{64} << 20;
// Ladder rate k is ladder_rps * kLadderStep^k.
constexpr double kLadderStep = 1.05;
constexpr int kLadderMin = -60, kLadderMax = 80, kLadderCoarse = 4;
// Deep enough that a host stall of a few milliseconds does not overflow it
// at the nominal rates; sustained overload still fills it.
constexpr size_t kQueueCapacity = 4096;
constexpr size_t kRequestPool = 200000;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Small utilities.

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wgbench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Unwrap(wg::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double MiB(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Order-independent fingerprint of an edge set.
struct EdgeChecksum {
  uint64_t edges = 0;
  uint64_t sum = 0;
  void Add(PageId p, PageId q) {
    ++edges;
    sum += Mix64((static_cast<uint64_t>(p) << 32) | q);
  }
  bool operator==(const EdgeChecksum&) const = default;
};

EdgeChecksum ChecksumOf(const WebGraph& graph) {
  EdgeChecksum c;
  for (PageId p = 0; p < graph.num_pages(); ++p) {
    for (PageId q : graph.OutLinks(p)) c.Add(p, q);
  }
  return c;
}

// Sweeps every adjacency list of `repr` in storage order.
EdgeChecksum ChecksumOf(GraphRepresentation* repr) {
  EdgeChecksum c;
  std::unique_ptr<wg::AdjacencyCursor> cursor = repr->NewCursor();
  wg::LinkView links;
  for (size_t i = 0; i < repr->num_pages(); ++i) {
    PageId p = repr->PageInNaturalOrder(i);
    CheckOk(cursor->Links(p, &links), "store sweep");
    for (PageId q : links) c.Add(p, q);
  }
  return c;
}

// One JSON object on one line: "key": value pairs in insertion order.
class JsonLine {
 public:
  void Num(const std::string& key, double value) { Raw(key, Format(value)); }
  void Nums(const std::string& key, const std::vector<double>& values) {
    std::string list = "[";
    for (double v : values) list += (list.size() > 1 ? ", " : "") + Format(v);
    Raw(key, list + "]");
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& value) {
    out_ += out_.empty() ? "{" : ", ";
    out_ += "\"" + key + "\": " + value;
  }
  std::string Close() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  static std::string Format(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    return buf;
  }
  std::string out_;
};

// ---------------------------------------------------------------------------
// Tracing and counters.

// The traced half of a --trace 1 stage: every root span is collected,
// nothing is pinned as slow, the newest `keep` records are retained.
void EnableTracing(size_t keep) {
  wg::obs::TraceRingOptions options;
  options.recent_capacity = keep;
  options.slow_capacity = 1;
  options.slow_threshold_us = 1e15;
  wg::obs::Tracer::Global().ring().Clear();
  wg::obs::Tracer::Global().EnableRing(options);
}

using Records = std::map<uint64_t, std::shared_ptr<wg::obs::TraceRecord>>;

// Stops collecting and hands back the retained records by trace id.
Records TakeRecords() {
  wg::obs::Tracer& tracer = wg::obs::Tracer::Global();
  tracer.DisableRing();
  Records by_id;
  for (auto& record : tracer.ring().Recent()) by_id[record->trace_id] = record;
  tracer.ring().Clear();
  return by_id;
}

double PhaseSelfUs(const wg::obs::TraceRecord& record, const char* category) {
  for (const wg::obs::PhaseStat& phase : record.phases) {
    if (std::strcmp(phase.category, category) == 0) return phase.self_us;
  }
  return 0;
}

// Public counters of a set of stores, summed.
struct Counters {
  double adjacency_requests = 0, edges_returned = 0, disk_reads = 0,
         bytes_read = 0, cache_hits = 0, graphs_loaded = 0, assembles = 0;

  static Counters Of(const std::vector<SNodeRepr*>& reprs) {
    Counters c;
    for (SNodeRepr* r : reprs) {
      const wg::ReprStats& s = r->stats();
      c.adjacency_requests += s.adjacency_requests;
      c.edges_returned += s.edges_returned;
      c.disk_reads += s.disk_reads;
      c.bytes_read += s.bytes_read;
      c.cache_hits += s.cache_hits;
      c.graphs_loaded += s.graphs_loaded;
      c.assembles += r->cold_stats().assembles;
    }
    return c;
  }
  Counters Minus(const Counters& o) const {
    return {adjacency_requests - o.adjacency_requests,
            edges_returned - o.edges_returned,
            disk_reads - o.disk_reads,
            bytes_read - o.bytes_read,
            cache_hits - o.cache_hits,
            graphs_loaded - o.graphs_loaded,
            assembles - o.assembles};
  }
};

// ---------------------------------------------------------------------------
// prepare

// Crawl r of a run: round r builds and scans it, the suite queries it, and
// crawl 0 is also the one served.
std::string CrawlPath(const std::string& dir, int r) {
  return dir + "/crawl-" + std::to_string(r) + ".wgg";
}
std::string TransposePath(const std::string& dir, int r) {
  return dir + "/crawl-" + std::to_string(r) + "-t.wgg";
}

// The seed of crawl r: each round builds a different graph, so that a
// build's cost is not that of one particular graph.
uint64_t CrawlSeed(uint64_t seed, int r) { return Mix64(seed * 64 + r); }

// Generates the workload's crawls (one per round, on `threads` threads)
// and their transposes.
int Prepare(const Workload& w, uint64_t seed, const std::string& dir,
            int threads) {
  fs::create_directories(dir);
  std::atomic<int> next{0};
  std::atomic<size_t> edges{0};
  auto generate = [&] {
    for (int r = next++; r < kRounds; r = next++) {
      wg::GeneratorOptions options;
      options.num_pages = w.pages;
      options.seed = CrawlSeed(seed, r);
      WebGraph graph = wg::GenerateWebGraph(options);
      CheckOk(wg::SaveWebGraph(graph, CrawlPath(dir, r)), "write crawl");
      CheckOk(wg::SaveWebGraph(graph.Transpose(), TransposePath(dir, r)),
              "write transposed crawl");
      edges += graph.num_edges();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::min(threads, kRounds); ++t) {
    pool.emplace_back(generate);
  }
  for (std::thread& t : pool) t.join();
  JsonLine out;
  out.Num("crawls", kRounds);
  out.Num("pages", static_cast<double>(w.pages) * kRounds);
  out.Num("edges", static_cast<double>(edges));
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// build (the child) and the parent's side of it

using Report = std::map<std::string, double>;

int BuildCommand(const std::string& crawl, const std::string& store,
                 int threads, bool trace, const std::string& report_path) {
  fs::create_directories(fs::path(store).parent_path());
  if (trace) EnableTracing(64);
  wg::SNodeBuildOptions options;
  options.threads = threads;
  wg::BuildMemoryBudget budget;
  budget.total_bytes = kBuildBudgetBytes;
  wg::FileEdgeSource source(crawl);
  wg::RefinementStats refinement;
  wg::StreamingBuildReport report;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<SNodeRepr> repr;
  {
    wg::obs::Span span("bench.build", "bench", wg::obs::Span::RootTag{});
    repr = Unwrap(wg::BuildStreaming(&source, store, options, budget,
                                     &refinement, &report),
                  "BuildStreaming");
    CheckOk(repr->SaveMeta(), "SaveMeta");
  }
  Report r;
  r["seconds"] = SecondsSince(t0);
  r["peak_rss_mb"] = MiB(wg::CurrentPeakRssBytes());
  for (const wg::StreamingBuildPhase& phase : report.phases) {
    r[phase.name + "_s"] += phase.seconds;
    r[phase.name + "_rss_mb"] = MiB(phase.peak_rss_bytes);
  }
  r["layout_s"] = refinement.layout_seconds;
  r["sort_runs"] = static_cast<double>(report.initial_sort_runs);
  r["store_bytes"] = static_cast<double>(repr->store().total_bytes());
  r["bits_per_edge"] = repr->BitsPerEdge();
  std::ofstream out(report_path);
  out.precision(17);
  for (const auto& [key, value] : r) out << key << ' ' << value << '\n';
  return out.good() ? 0 : 1;
}

// Runs `wgbench build` in a child and returns its report. exec, not a bare
// fork: a forked child starts with the parent's resident set (open stores,
// caches), so its VmHWM would not be the build's own.
Report BuildInChild(const std::string& dir, const std::string& crawl,
                    const std::string& store, int threads, bool trace) {
  const std::string report_path = dir + "/build.report";
  fs::remove(report_path);
  std::vector<std::string> args = {"wgbench",   "build",
                                   "--crawl",   crawl,
                                   "--store",   store,
                                   "--threads", std::to_string(threads),
                                   "--trace",   trace ? "1" : "0",
                                   "--report",  report_path};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Die("build of " + store + " failed");
  }
  Report r;
  std::ifstream in(report_path);
  std::string key;
  double value;
  while (in >> key >> value) r[key] = value;
  if (r.count("seconds") == 0) Die("build of " + store + " left no report");
  return r;
}

// Per key, the median over `reports`.
Report MedianReport(const std::vector<Report>& reports) {
  Report median;
  for (const auto& [key, unused] : reports.front()) {
    std::vector<double> values;
    for (const Report& r : reports) values.push_back(r.at(key));
    median[key] = Median(values);
  }
  return median;
}

// ---------------------------------------------------------------------------
// Latency of the rungs at one rate, pooled.

// Each rung is judged window by window, so that one host preemption (this
// kind of virtual machine stalls a spinning thread for 1-10 ms about once a
// second) spoils one window, not the rung. Percentiles come from the raw
// samples.
struct LatencyStats {
  size_t answered = 0;  // kOk responses
  size_t refused = 0;   // rejected, timed out or failed
  size_t windows = 0, windows_meeting = 0;
  bool aborted = false;
  std::vector<double> latency_us;     // answered requests
  std::vector<double> late_us;        // generator lateness, every request
  std::vector<double> window_p99_ms;  // per window

  // A window meets the service level when nothing in it was refused, the
  // p99 of its answered requests is within the limit, and the requests
  // left outstanding at its end are no more than the limit's worth of
  // arrivals.
  void Add(const Workload& w, const Rung& rung, int workers) {
    const size_t n = std::max<size_t>(
        1, static_cast<size_t>(
               std::floor(rung.seconds / rung.window_s + 1e-9)));
    std::vector<std::vector<double>> window_latency(n);
    std::vector<bool> window_refused(n, false);
    for (const Sample& s : rung.samples) {
      late_us.push_back(s.late_us);
      const size_t k =
          std::min(n - 1, static_cast<size_t>(s.scheduled_s / rung.window_s));
      if (s.code != ResponseCode::kOk) {
        ++refused;
        window_refused[k] = true;
        continue;
      }
      ++answered;
      latency_us.push_back(s.latency_us);
      window_latency[k].push_back(s.latency_us);
    }
    const double backlog_limit =
        rung.offered_rps * w.p99_limit_ms / 1e3 + workers;
    for (size_t k = 0; k < n; ++k) {
      const double p99_ms = Percentile(window_latency[k], 0.99) / 1e3;
      window_p99_ms.push_back(p99_ms);
      const bool backlog_ok =
          k >= rung.backlog.size() ||
          static_cast<double>(rung.backlog[k]) <= backlog_limit;
      if (!window_refused[k] && backlog_ok && p99_ms <= w.p99_limit_ms) {
        ++windows_meeting;
      }
    }
    windows += n;
    aborted = aborted || rung.aborted;
  }

  double p50_ms() const { return Percentile(latency_us, 0.5) / 1e3; }
  // The lower quartile over windows of each window's p99. A slower tail in
  // the program raises every window; the host's slow spells (stolen vCPU
  // time, memory contention) raise the windows they fall in, and in some
  // runs that is most of them.
  double p99_ms() const { return Percentile(window_p99_ms, 0.25); }
  double raw_p99_ms() const { return Percentile(latency_us, 0.99) / 1e3; }
  bool meets() const { return !aborted && 2 * windows_meeting > windows; }

  void Log(const char* workload, double rate, const char* what) const {
    std::fprintf(stderr,
                 "%-10s %-7s %9.0f req/s: %zu answered, %zu refused, p50 "
                 "%.4f ms, p99 %.4f ms (raw %.4f), late p99 %.0f us, "
                 "%zu/%zu windows meet -> %s\n",
                 workload, what, rate, answered, refused, p50_ms(), p99_ms(),
                 raw_p99_ms(), Percentile(late_us, 0.99), windows_meeting,
                 windows, meets() ? "meets" : "misses");
  }
};

// ---------------------------------------------------------------------------
// slo_rps

// An up-down staircase over the ladder rates ladder_rps * kLadderStep^k.
// It starts kLadderCoarse rates above ladder_rps and steps up after a
// rung that meets the service level, down after one that misses. The step
// halves at every reversal, down to one rate, and doubles, up to
// kLadderCoarse, after two moves the same way, so that a rung spoiled by a
// host stall early on does not leave the staircase crawling towards the
// boundary one rate at a time. By the second half of the rungs it
// oscillates around the highest rate that meets the service level, and
// slo_rps is the rate at the mean k of that half.
class Staircase {
 public:
  explicit Staircase(double base_rps) : base_rps_(base_rps) {}

  double rate() const { return Rate(k_); }

  void Record(bool meets) {
    trail_.push_back(k_);
    if (meets != last_meets_) {
      step_ = std::max(1, step_ / 2);
      same_way_ = 0;
    } else if (++same_way_ >= 2) {
      step_ = std::min(kLadderCoarse, step_ * 2);
      same_way_ = 0;
    }
    last_meets_ = meets;
    k_ = std::clamp(meets ? k_ + step_ : k_ - step_, kLadderMin, kLadderMax);
  }

  double SloRps() const {
    double sum = 0;
    const size_t first = trail_.size() / 2;
    for (size_t i = first; i < trail_.size(); ++i) sum += trail_[i];
    return Rate(sum / std::max<size_t>(1, trail_.size() - first));
  }

  const std::vector<double>& trail() const { return trail_; }

 private:
  double Rate(double k) const {
    return base_rps_ * std::pow(kLadderStep, k);
  }

  double base_rps_;
  int k_ = kLadderCoarse;
  int step_ = kLadderCoarse;
  int same_way_ = 0;        // moves in a row the way of the last one
  bool last_meets_ = true;  // rate 0, below the first rung, is taken to
                            // meet: it is about half the capacity
  std::vector<double> trail_;
};

// ---------------------------------------------------------------------------
// checks (after all timing; they feed no metric)

// Expected answers from the ground-truth crawl.
class Oracle {
 public:
  Oracle(const WebGraph* graph, const WebGraph* transpose)
      : graph_(graph), transpose_(transpose), stamp_(graph->num_pages(), 0) {}

  // (size, hash) of the sorted page list `r` must return.
  std::pair<uint32_t, uint64_t> Answer(const Request& r) {
    std::vector<PageId> pages;
    if (r.type == RequestType::kOutNeighbors) {
      auto links = graph_->OutLinks(r.page);
      pages.assign(links.begin(), links.end());
    } else if (r.type == RequestType::kInNeighbors) {
      auto links = transpose_->OutLinks(r.page);
      pages.assign(links.begin(), links.end());
    } else {
      ++epoch_;
      stamp_[r.page] = epoch_;
      std::vector<PageId> frontier = {r.page}, next;
      for (int hop = 0; hop < r.k && !frontier.empty(); ++hop) {
        next.clear();
        for (PageId p : frontier) {
          for (PageId q : graph_->OutLinks(p)) {
            if (stamp_[q] != epoch_) {
              stamp_[q] = epoch_;
              next.push_back(q);
              pages.push_back(q);
            }
          }
        }
        frontier.swap(next);
      }
      std::sort(pages.begin(), pages.end());
    }
    return {static_cast<uint32_t>(pages.size()),
            HashPages(pages.data(), pages.size())};
  }

 private:
  const WebGraph* graph_;
  const WebGraph* transpose_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

// Collects the first failed check; any failure makes the run incorrect.
struct Verdict {
  bool correct = true;
  std::string first_error;
  void Fail(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
};

bool SameRanking(const std::vector<std::pair<std::string, double>>& got,
                 const std::vector<std::pair<std::string, double>>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first ||
        std::abs(got[i].second - want[i].second) >
            1e-9 * std::max(1.0, std::abs(want[i].second))) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// run

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  std::string dir;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  int workers = 1;  // QueryService workers
  int build_threads = 1;
};

int Run(const Options& o) {
  const Workload& w = *o.workload;
  const std::string store_dir = o.dir + "/stores";
  auto fwd_store = [&](const std::string& rep) {
    return store_dir + "/" + rep + "/fwd";
  };
  auto round_store = [&](int r) { return fwd_store("r" + std::to_string(r)); };
  auto bwd_store = [&](int r) {
    return store_dir + "/bwd" + std::to_string(r) + "/bwd";
  };
  fs::remove_all(store_dir);
  JsonLine out;
  JsonLine m;
  double setup_s = 0;  // in-process set-up; run.py adds the prepare time
  size_t attempted = 0, failed = 0;
  Verdict verdict;

  // Every store opens as wgserve and wgtool open it: pread + CRC, no mmap,
  // warmer or decode-ahead, with the workload's cache budget.
  wg::SNodeBuildOptions open_options;
  open_options.buffer_bytes = w.cache_bytes;
  auto open = [&](const std::string& store) {
    return Unwrap(SNodeRepr::Open(store, open_options), "open store");
  };

  // Wall time of each stage, for the provenance line.
  std::vector<double> stage_s;
  Clock::time_point t_stage = Clock::now();
  auto end_stage = [&] {
    stage_s.push_back(SecondsSince(t_stage));
    t_stage = Clock::now();
  };

  // ---- set-up: the crawls' backward stores, built once
  Clock::time_point t_setup = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    BuildInChild(o.dir, TransposePath(o.dir, r), bwd_store(r),
                 o.build_threads, false);
  }
  setup_s += SecondsSince(t_setup);

  // ---- rounds: build and scan crawl r, then a nominal segment
  std::unique_ptr<SNodeRepr> fwd, bwd;  // crawl 0, served
  std::unique_ptr<QueryService> service;
  QueryContext ctx;
  wg::server::QueryServiceOptions service_options;
  service_options.num_workers = o.workers;
  service_options.queue_capacity = kQueueCapacity;

  wg::server::WorkloadOptions mix;
  mix.num_pages = w.pages;
  mix.num_requests = kRequestPool;
  mix.seed = o.seed;
  mix.zipf_theta = w.zipf_theta;
  const std::vector<Request> pool = wg::server::SyntheticWorkload(mix);
  AnswerTable answers(kRequestPool);
  size_t next_request = 0;
  uint64_t rung_seed = o.seed * 1000003;
  auto rung = [&](QueryService* s, double rate, double seconds,
                  bool stop_on_reject, bool keep_trace_ids = false) {
    return RunRung(s, pool, &next_request, rate, seconds, w.window_s,
                   ++rung_seed, stop_on_reject, keep_trace_ids, &answers);
  };

  wg::PageRankOptions pr_options;
  pr_options.max_iterations = w.scan_iterations;
  pr_options.tolerance = -1;  // never stop early
  std::vector<std::vector<double>> pagerank(kRounds);  // per crawl
  Counters scan_work;  // of one scan
  // One scan: fixed-iteration PageRank, from an empty decoded cache on cold
  // workloads; on hot ones the round has swept the store once beforehand.
  auto scan = [&](SNodeRepr* repr, std::vector<double>* ranks) {
    if (w.cold) repr->ClearCache();
    const Counters before = Counters::Of({repr});
    Clock::time_point t0 = Clock::now();
    *ranks = Unwrap(wg::ComputePageRank(repr, pr_options), "PageRank");
    const double seconds = SecondsSince(t0);
    scan_work = Counters::Of({repr}).Minus(before);
    return seconds;
  };

  std::vector<Report> builds;
  std::vector<double> build_times, scan_times;
  std::unique_ptr<SNodeRepr> scanned;  // the round's crawl; the last one's
                                       // is scanned again in the ladder
  LatencyStats nominal;
  const double segment_s =
      std::max(0.2, w.nominal_share * o.seconds / kRounds);
  for (int r = 0; r < kRounds; ++r) {
    builds.push_back(BuildInChild(o.dir, CrawlPath(o.dir, r), round_store(r),
                                  o.build_threads, false));
    build_times.push_back(builds.back().at("seconds"));
    ++attempted;
    if (r == 0) {
      // Set-up: open the served stores and warm up with one sweep of each
      // and a short burst at the nominal rate.
      Clock::time_point t0 = Clock::now();
      fwd = open(round_store(0));
      bwd = open(bwd_store(0));
      ctx.forward = fwd.get();
      ctx.backward = bwd.get();
      service = std::make_unique<QueryService>(ctx, service_options);
      ChecksumOf(fwd.get());
      ChecksumOf(bwd.get());
      rung(service.get(), w.nominal_rps, 0.3, false);
      setup_s += SecondsSince(t0);
    }
    // A store of its own, so that the served one's cache stays warm. One
    // scan before the segment and one after it: the host's slow spells
    // last a second or three, and scans run back to back share one.
    scanned.reset();
    scanned = open(round_store(r));
    if (!w.cold) ChecksumOf(scanned.get());
    scan_times.push_back(scan(scanned.get(), &pagerank[r]));
    nominal.Add(w, rung(service.get(), w.nominal_rps, segment_s, false),
                o.workers);
    scan_times.push_back(scan(scanned.get(), &pagerank[r]));
  }
  end_stage();
  nominal.Log(w.name, w.nominal_rps, "nominal");
  attempted += nominal.answered + nominal.refused;
  failed += nominal.refused;
  const Report build = MedianReport(builds);
  const double build_s = Median(build_times);
  // The peak of the timed part: a build's own (each ran in a fresh child;
  // the median over them) or this process's, which has held no crawl.
  std::vector<double> build_peaks;
  for (const Report& r : builds) build_peaks.push_back(r.at("peak_rss_mb"));
  const double peak_rss_mb =
      std::max(Median(build_peaks), MiB(wg::CurrentPeakRssBytes()));

  // ---- traced repeats (--trace 1)
  Report traced_build;
  double traced_scan_s = 0;
  const char* const kScanCategories[] = {"repr", "cache", "storage"};
  std::map<std::string, std::vector<double>> scan_self_us;  // per category
  LatencyStats traced;
  Rung traced_rung;
  Counters traced_work;
  Records records;
  if (o.trace) {
    traced_build = BuildInChild(o.dir, CrawlPath(o.dir, 0),
                                fwd_store("traced"), o.build_threads, true);
    // Three traced scans; each phase's self time is the median over them.
    std::unique_ptr<SNodeRepr> traced_store = open(round_store(0));
    if (!w.cold) ChecksumOf(traced_store.get());
    std::vector<double> traced_scan_times, ranks;
    for (int i = 0; i < 3; ++i) {
      EnableTracing(4);
      {
        wg::obs::Span span("bench.scan", "bench", wg::obs::Span::RootTag{});
        traced_scan_times.push_back(scan(traced_store.get(), &ranks));
      }
      Records scan_records = TakeRecords();
      for (const char* cat : kScanCategories) {
        scan_self_us[cat].push_back(
            scan_records.empty()
                ? 0
                : PhaseSelfUs(*scan_records.rbegin()->second, cat));
      }
    }
    traced_scan_s = Percentile(traced_scan_times, 0.25);  // as scan_s

    EnableTracing(20000);
    const Counters before = Counters::Of({fwd.get(), bwd.get()});
    traced_rung = rung(service.get(), w.nominal_rps,
                       std::max(1.0, w.nominal_share * o.seconds / 2), false,
                       true);
    traced_work = Counters::Of({fwd.get(), bwd.get()}).Minus(before);
    records = TakeRecords();
    traced.Add(w, traced_rung, o.workers);
    traced.Log(w.name, w.nominal_rps, "traced");
  }
  service->Shutdown();
  end_stage();

  // ---- ladder, then suite
  // Each crawl with its URL/domain metadata, corpus and inverted
  // index, its stores (crawl 0's are the served ones) and a service.
  struct SuiteCrawl {
    std::unique_ptr<WebGraph> graph;
    std::unique_ptr<wg::Corpus> corpus;
    std::unique_ptr<wg::InvertedIndex> index;
    std::unique_ptr<SNodeRepr> fwd, bwd;  // crawls after the first
    QueryContext ctx;
    std::unique_ptr<QueryService> service;
    std::vector<std::vector<std::pair<std::string, double>>> rankings;
    size_t passes = 0;
  };
  Clock::time_point t_suite_setup = Clock::now();
  std::vector<SuiteCrawl> suite(kRounds);
  for (int c = 0; c < kRounds; ++c) {
    SuiteCrawl& sc = suite[c];
    sc.graph = std::make_unique<WebGraph>(
        Unwrap(wg::LoadWebGraph(CrawlPath(o.dir, c)), "load crawl"));
    sc.corpus = std::make_unique<wg::Corpus>(
        wg::Corpus::Generate(*sc.graph, wg::CorpusOptions()));
    sc.index = std::make_unique<wg::InvertedIndex>(
        wg::InvertedIndex::Build(*sc.corpus));
    sc.ctx = ctx;
    if (c > 0) {
      sc.fwd = open(round_store(c));
      sc.bwd = open(bwd_store(c));
      sc.ctx.forward = sc.fwd.get();
      sc.ctx.backward = sc.bwd.get();
    }
    sc.ctx.graph = sc.graph.get();
    sc.ctx.corpus = sc.corpus.get();
    sc.ctx.index = sc.index.get();
    sc.ctx.pagerank = &pagerank[c];
    sc.service = std::make_unique<QueryService>(sc.ctx, service_options);
    sc.rankings.resize(wg::kNumQueries);
  }
  const WebGraph& graph = *suite[0].graph;
  setup_s += SecondsSince(t_suite_setup);

  // Passes over the six Table-3 queries, each query submitted alone and
  // timed from Submit to its response.
  if (o.trace) EnableTracing(4096);
  std::vector<double> pass_ms;
  std::vector<uint64_t> suite_trace_ids;
  auto suite_pass = [&](SuiteCrawl& sc) {
    if (w.cold) {
      sc.ctx.forward->ClearBuffers();
      sc.ctx.backward->ClearBuffers();
    }
    double total_ms = 0;
    for (int q = 1; q <= wg::kNumQueries; ++q) {
      Request request;
      request.type = RequestType::kComplexQuery;
      request.query_number = q;
      Clock::time_point sent = Clock::now();
      Response response = sc.service->Submit(request).get();
      const double ms = SecondsSince(sent) * 1e3;
      ++attempted;
      if (response.code != ResponseCode::kOk) {
        ++failed;
        verdict.Fail("suite query " + std::to_string(q) + ": " +
                     response.status.ToString());
        continue;
      }
      total_ms += ms;
      suite_trace_ids.push_back(response.trace_id);
      if (sc.passes == 0) {
        sc.rankings[q - 1] = response.query.ranked;
      } else if (response.query.ranked != sc.rankings[q - 1]) {
        verdict.Fail("suite query " + std::to_string(q) +
                     " changed its answer between passes");
      }
    }
    ++sc.passes;
    pass_ms.push_back(total_ms);
  };
  // The passes run in blocks spread over the ladder, one per crawl, so that
  // a second-long slow spell of the host spoils one block, not the metric.
  const double block_s = std::max(1.0, w.suite_share * o.seconds) / kRounds;
  int blocks_run = 0;
  std::vector<double> block_ms;  // per block, its passes' lower quartile
  auto suite_block = [&] {
    SuiteCrawl& sc = suite[blocks_run];
    Clock::time_point t0 = Clock::now();
    const size_t first = pass_ms.size();
    do {
      suite_pass(sc);
    } while (pass_ms.size() < 200 && SecondsSince(t0) < block_s);
    ++blocks_run;
    const std::vector<double> block(pass_ms.begin() + first, pass_ms.end());
    block_ms.push_back(Percentile(block, 0.25));
    std::fprintf(stderr,
                 "%-10s suite   %zu passes: first %.2f ms, median %.2f ms, "
                 "lower quartile %.2f ms\n",
                 w.name, block.size(), block.front(), Median(block),
                 block_ms.back());
  };

  Staircase staircase(w.ladder_rps);
  if (!o.trace) {
    const int probes =
        std::max(8, static_cast<int>(w.ladder_share * o.seconds / w.probe_s));
    for (int p = 0; p < probes; ++p) {
      LatencyStats stats;
      stats.Add(w, rung(suite[0].service.get(), staircase.rate(), w.probe_s,
                        true),
                o.workers);
      stats.Log(w.name, staircase.rate(), "ladder");
      staircase.Record(stats.meets());
      if (p % 4 == 1) {
        scan_times.push_back(scan(scanned.get(), &pagerank[kRounds - 1]));
      }
      if ((p + 1) % (probes / kRounds) == 0 && blocks_run < kRounds) {
        suite_block();
      }
    }
  }
  while (blocks_run < kRounds) suite_block();
  for (SuiteCrawl& sc : suite) sc.service->Shutdown();
  end_stage();
  // The lower quartile: a scan repeats the same work, and the host's slow
  // spells only ever add time to it.
  const double scan_s = Percentile(scan_times, 0.25);
  // The mean over the blocks, so that each crawl weighs the same;
  // within a block, the lower quartile, as for the scans.
  double suite_ms = 0;
  for (double ms : block_ms) suite_ms += ms / block_ms.size();
  // Per query: root span time; per pass: the roots' own (query-layer) time
  // outside their child spans.
  std::vector<std::vector<double>> query_ms(wg::kNumQueries);
  std::vector<double> pass_self_ms;
  if (o.trace) {
    Records suite_records = TakeRecords();
    for (size_t i = 0; i < suite_trace_ids.size(); ++i) {
      auto it = suite_records.find(suite_trace_ids[i]);
      if (it == suite_records.end()) continue;
      const size_t q = i % wg::kNumQueries;
      if (q == 0) pass_self_ms.push_back(0);
      query_ms[q].push_back(it->second->dur_us / 1e3);
      if (!pass_self_ms.empty()) {
        pass_self_ms.back() += PhaseSelfUs(*it->second, "service") / 1e3;
      }
    }
  }

  // ---- checks
  WebGraph transpose = graph.Transpose();
  {
    Oracle oracle(&graph, &transpose);
    for (size_t i = 0; i < pool.size(); ++i) {
      if (answers.seen[i] &&
          oracle.Answer(pool[i]) !=
              std::make_pair(answers.size[i], answers.hash[i])) {
        verdict.Fail(std::string("wrong answer to ") +
                     wg::server::RequestTypeName(pool[i].type) + " page " +
                     std::to_string(pool[i].page));
      }
    }
    if (answers.inconsistent > 0) {
      verdict.Fail(std::to_string(answers.inconsistent) +
                   " answers differ from an earlier answer to the same "
                   "request");
    }
    out.Num("checked_answers", static_cast<double>(answers.answers));
  }
  // The crawls' backward stores against their transposes, and
  // their suite rankings against the same queries over in-memory baseline
  // representations.
  for (SuiteCrawl& sc : suite) {
    const WebGraph t = sc.graph->Transpose();
    if (!(ChecksumOf(sc.ctx.backward) == ChecksumOf(t))) {
      verdict.Fail("backward store edges differ from the transposed crawl");
    }
    auto base_fwd = wg::HuffmanRepr::Build(*sc.graph);
    auto base_bwd = wg::HuffmanRepr::Build(t);
    QueryContext base_ctx = sc.ctx;
    base_ctx.forward = base_fwd.get();
    base_ctx.backward = base_bwd.get();
    for (int q = 1; q <= wg::kNumQueries; ++q) {
      wg::QueryResult want =
          Unwrap(wg::RunQuery(q, base_ctx), "baseline query");
      if (!SameRanking(sc.rankings[q - 1], want.ranked)) {
        verdict.Fail("suite query " + std::to_string(q) +
                     " ranks differently from the in-memory baseline");
      }
    }
  }
  // Every round's store against its crawl file, and its scan against
  // PageRank over the crawl in memory.
  for (int r = 0; r < kRounds; ++r) {
    const std::string crawl = "crawl " + std::to_string(r);
    const WebGraph& g = *suite[r].graph;
    std::unique_ptr<SNodeRepr> store = open(round_store(r));
    if (store->num_edges() != g.num_edges() ||
        !(ChecksumOf(store.get()) == ChecksumOf(g))) {
      verdict.Fail("store edges differ from " + crawl);
    }
    const std::vector<double> expected = wg::ComputePageRank(g, pr_options);
    for (size_t p = 0; p < expected.size(); ++p) {
      if (expected.size() != pagerank[r].size() ||
          std::abs(expected[p] - pagerank[r][p]) >
              1e-12 + 1e-9 * std::abs(expected[p])) {
        verdict.Fail("PageRank over the store of " + crawl +
                     " differs at page " + std::to_string(p));
        break;
      }
    }
  }
  end_stage();

  // ---- report
  out.Raw("correct", verdict.correct ? "true" : "false");
  if (!verdict.correct) out.Str("error", verdict.first_error);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failed));
  out.Num("setup_s", setup_s);
  out.Num("crawls", kRounds);
  out.Num("pages", static_cast<double>(graph.num_pages()));
  out.Num("edges", static_cast<double>(graph.num_edges()));
  out.Num("nproc", o.nproc);
  out.Num("workers", o.workers);
  out.Num("build_threads", o.build_threads);
  out.Num("lat_samples", static_cast<double>(nominal.answered));
  out.Num("lat_windows", static_cast<double>(nominal.windows));
  out.Num("lat_raw_p99_ms", nominal.raw_p99_ms());
  out.Nums("lat_window_p99_ms", nominal.window_p99_ms);
  out.Nums("build_s", build_times);
  out.Nums("build_peak_rss_mb", build_peaks);
  out.Nums("scan_s", scan_times);
  out.Nums("ladder_k", staircase.trail());
  out.Num("suite_passes", static_cast<double>(pass_ms.size()));
  out.Nums("suite_block_ms", block_ms);
  // set-up and rounds, traced repeats, ladder and suite, checks
  out.Nums("stage_s", stage_s);

  if (!o.trace) {
    m.Num("lat_p50_ms", nominal.p50_ms());
    m.Num("lat_p99_ms", nominal.p99_ms());
    m.Num("slo_rps", staircase.SloRps());
    m.Num("suite_ms", suite_ms);
    m.Num("build_s", build_s);
    m.Num("scan_s", scan_s);
    m.Num("peak_rss_mb", peak_rss_mb);
    m.Num("bits_per_edge", build.at("bits_per_edge"));
  } else {
    // Serving layers: the traced nominal rung joined to its span records.
    std::vector<double> service_us, wait_us, khop_us;
    const char* const kCats[4] = {"service", "repr", "cache", "storage"};
    double self_us[4] = {0, 0, 0, 0};
    size_t joined = 0;
    for (size_t i = 0; i < traced_rung.samples.size(); ++i) {
      auto it = records.find(traced_rung.trace_ids[i]);
      if (traced_rung.samples[i].code != ResponseCode::kOk ||
          it == records.end()) {
        continue;
      }
      const wg::obs::TraceRecord& record = *it->second;
      ++joined;
      service_us.push_back(record.dur_us);
      wait_us.push_back(
          std::max(0.0, traced_rung.samples[i].latency_us - record.dur_us));
      if (std::strcmp(record.root_name, "k-hop") == 0) {
        khop_us.push_back(record.dur_us);
      }
      for (int c = 0; c < 4; ++c) self_us[c] += PhaseSelfUs(record, kCats[c]);
    }
    const double per_joined = joined == 0 ? 0 : 1.0 / joined;
    const double requests = std::max<double>(1, traced.answered);
    const Counters& work = traced_work;
    m.Num("loadgen.late_us.p99", Percentile(nominal.late_us, 0.99));
    m.Num("server.queue_wait_us.p50", Percentile(wait_us, 0.5));
    m.Num("server.queue_wait_us.p99", Percentile(wait_us, 0.99));
    m.Num("server.service_us.p50", Percentile(service_us, 0.5));
    m.Num("server.service_us.p99", Percentile(service_us, 0.99));
    m.Num("server.khop_us.p50", Percentile(khop_us, 0.5));
    m.Num("server.self_us", self_us[0] * per_joined);
    for (int q = 0; q < wg::kNumQueries; ++q) {
      m.Num("query.q" + std::to_string(q + 1) + "_ms", Median(query_ms[q]));
    }
    m.Num("query.self_ms", Median(pass_self_ms));
    m.Num("repr.self_us", self_us[1] * per_joined);
    m.Num("repr.links_per_req", work.adjacency_requests / requests);
    m.Num("repr.edges_per_req", work.edges_returned / requests);
    m.Num("cache.self_us", self_us[2] * per_joined);
    // No decoded blob loaded means nothing missed the cache.
    const double lookups = work.cache_hits + work.graphs_loaded;
    m.Num("cache.hit_ratio", lookups == 0 ? 1 : work.cache_hits / lookups);
    m.Num("snode.blobs_decoded_per_req", work.graphs_loaded / requests);
    m.Num("snode.assembles_per_req", work.assembles / requests);
    m.Num("storage.self_us", self_us[3] * per_joined);
    m.Num("storage.bytes_per_req", work.bytes_read / requests);
    m.Num("storage.reads_per_req", work.disk_reads / requests);
    for (const char* key :
         {"ingest_s", "refine_s", "encode_s", "layout_s", "sort_runs",
          "ingest_rss_mb", "refine_rss_mb", "encode_rss_mb", "store_bytes"}) {
      m.Num(std::string("build.") + key, build.count(key) ? build.at(key) : 0);
    }
    const double swept =
        static_cast<double>(fwd->num_edges()) * w.scan_iterations;
    m.Num("scan.ns_per_edge", scan_s * 1e9 / swept);
    for (const char* cat : kScanCategories) {
      m.Num(std::string("scan.") + cat + "_ns_per_edge",
            Median(scan_self_us[cat]) * 1e3 / swept);
    }
    m.Num("scan.blobs_decoded", scan_work.graphs_loaded);
    m.Num("scan.assembles", scan_work.assembles);
    m.Num("scan.bytes_read", scan_work.bytes_read);
    auto overhead_pct = [](double traced_value, double plain) {
      return plain <= 0 ? 0 : 100.0 * (traced_value - plain) / plain;
    };
    m.Num("obs.trace_overhead_pct",
          overhead_pct(traced.p50_ms(), nominal.p50_ms()));
    m.Num("obs.build_trace_overhead_pct",
          overhead_pct(traced_build.at("seconds"), build_s));
    m.Num("obs.scan_trace_overhead_pct", overhead_pct(traced_scan_s, scan_s));
    out.Num("joined_traces", static_cast<double>(joined));
  }
  out.Raw("metrics", m.Close());
  std::printf("%s\n", out.Close().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: wgbench prepare --workload W --seed S --dir D\n"
               "       wgbench run --workload W --seed S --dir D "
               "--seconds T --trace 0|1\n"
               "       wgbench build --crawl F --store P --threads N "
               "--trace 0|1 --report R\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2 || argc % 2 != 0) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  auto flag = [&](const char* name) -> std::string {
    auto it = flags.find(name);
    if (it == flags.end()) std::exit(Usage());
    return it->second;
  };
  const bool trace = flags.count("--trace") && flags["--trace"] != "0";
  if (command == "build") {
    return BuildCommand(flag("--crawl"), flag("--store"),
                        std::atoi(flag("--threads").c_str()), trace,
                        flag("--report"));
  }
  Options o;
  o.workload = FindWorkload(flag("--workload"));
  o.seed = std::strtoull(flag("--seed").c_str(), nullptr, 10);
  o.dir = flag("--dir");
  if (o.workload == nullptr) return Usage();
  // nproc: the CPUs this process may run on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cores = sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                        ? CPU_COUNT(&allowed)
                        : static_cast<int>(std::thread::hardware_concurrency());
  o.nproc = std::max(1, cores);
  o.workers = std::max(1, o.nproc - 1);
  o.build_threads = o.nproc;
  if (command == "prepare") {
    return Prepare(*o.workload, o.seed, o.dir, o.nproc);
  }
  if (command != "run") return Usage();
  o.seconds = std::strtod(flag("--seconds").c_str(), nullptr);
  o.trace = trace;
  if (o.seconds <= 0) return Usage();
  return Run(o);
}
