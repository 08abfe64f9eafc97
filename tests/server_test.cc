#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "obs/metrics.h"
#include "server/bounded_queue.h"
#include "server/query_service.h"
#include "server/workload.h"
#include "snode/snode_repr.h"
#include "storage/file.h"
#include "text/corpus.h"
#include "text/inverted_index.h"
#include "text/pagerank.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using server::BoundedQueue;
using server::QueryService;
using server::QueryServiceOptions;
using server::Request;
using server::RequestType;
using server::Response;
using server::ResponseCode;

using test::TempPath;

// ---------- BoundedQueue ----------

TEST(BoundedQueueTest, RefusesWhenFullAndDrainsOnClose) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // closed
  int v = 0;
  EXPECT_TRUE(queue.Pop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(queue.Pop(&v));
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(queue.Pop(&v));  // drained + closed
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> queue(64);
  std::atomic<int64_t> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v;
      while (queue.Pop(&v)) {
        sum.fetch_add(v);
        popped.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * kPerProducer + i;
        while (!queue.TryPush(std::move(v))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : threads) t.join();
  int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), static_cast<int64_t>(total) * (total - 1) / 2);
}

// ---------- Workload ----------

TEST(WorkloadTest, SyntheticIsDeterministicAndInRange) {
  server::WorkloadOptions opts;
  opts.num_requests = 500;
  opts.num_pages = 1234;
  auto a = server::SyntheticWorkload(opts);
  auto b = server::SyntheticWorkload(opts);
  ASSERT_EQ(a.size(), 500u);
  bool saw_out = false, saw_in = false, saw_khop = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].page, b[i].page);
    EXPECT_LT(a[i].page, opts.num_pages);
    saw_out |= a[i].type == RequestType::kOutNeighbors;
    saw_in |= a[i].type == RequestType::kInNeighbors;
    saw_khop |= a[i].type == RequestType::kKHop;
  }
  EXPECT_TRUE(saw_out);
  EXPECT_TRUE(saw_in);
  EXPECT_TRUE(saw_khop);
}

TEST(WorkloadTest, ParsesRequestFileAndRejectsGarbage) {
  std::string path = TempPath("reqs");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# comment\nout 7\nin 9\nkhop 3 2\nquery 4\n\n", f);
  std::fclose(f);
  auto parsed = server::ParseRequestFile(path, 100);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 4u);
  EXPECT_EQ(parsed.value()[0].type, RequestType::kOutNeighbors);
  EXPECT_EQ(parsed.value()[0].page, 7u);
  EXPECT_EQ(parsed.value()[2].k, 2);
  EXPECT_EQ(parsed.value()[3].query_number, 4);

  std::string bad_path = TempPath("bad_reqs");
  f = std::fopen(bad_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("out 7\nfrobnicate 1\n", f);
  std::fclose(f);
  EXPECT_FALSE(server::ParseRequestFile(bad_path, 100).ok());
  // Out-of-range page ids are rejected too.
  f = std::fopen(bad_path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("out 100\n", f);
  std::fclose(f);
  EXPECT_FALSE(server::ParseRequestFile(bad_path, 100).ok());

  auto parse = [&bad_path](const std::string& text) {
    std::FILE* out = std::fopen(bad_path.c_str(), "w");
    EXPECT_NE(out, nullptr);
    std::fputs(text.c_str(), out);
    std::fclose(out);
    return server::ParseRequestFile(bad_path, 100);
  };
  // A comment longer than any line buffer is one line, all of it skipped.
  auto long_comment = parse("# " + std::string(300, 'c') + "\nout 5\n");
  ASSERT_TRUE(long_comment.ok()) << long_comment.status().ToString();
  ASSERT_EQ(long_comment.value().size(), 1u);
  EXPECT_EQ(long_comment.value()[0].page, 5u);
  // Every op takes exactly its fields, each a whole number.
  for (const char* garbage :
       {"out 12abc\n", "in 7 junk\n", "khop 3 2 9\n", "out\n", "khop 3\n",
        "out -1\n", "out +5\n", "query 4 4\n", "out 99999999999999999999\n"}) {
    EXPECT_FALSE(parse(garbage).ok()) << garbage;
  }
  // Errors carry the number of the line they are on, long lines included.
  Status late = parse("out 1\n# " + std::string(600, 'c') + "\n\nin 7 junk\n")
                    .status();
  EXPECT_NE(late.ToString().find(":4: "), std::string::npos)
      << late.ToString();
}

// ---------- QueryService over a shared SNodeRepr ----------

// One graph + forward/backward S-Node representations + text stack,
// shared by all service tests (building is the expensive part).
class ServerEnv {
 public:
  static ServerEnv& Get() {
    static ServerEnv* env = new ServerEnv();
    return *env;
  }

  QueryContext Context() {
    QueryContext ctx;
    ctx.forward = forward.get();
    ctx.backward = backward.get();
    ctx.graph = &graph;
    ctx.corpus = &corpus;
    ctx.index = &index;
    ctx.pagerank = &pagerank;
    return ctx;
  }

  WebGraph graph;
  WebGraph transpose;
  Corpus corpus;
  InvertedIndex index;
  std::vector<double> pagerank;
  std::unique_ptr<SNodeRepr> forward;
  std::unique_ptr<SNodeRepr> backward;

 private:
  ServerEnv() {
    GeneratorOptions gopts;
    gopts.num_pages = 6000;
    gopts.seed = 71;
    graph = GenerateWebGraph(gopts);
    transpose = graph.Transpose();
    corpus = Corpus::Generate(graph, CorpusOptions());
    index = InvertedIndex::Build(corpus);
    pagerank = ComputePageRank(graph);
    SNodeBuildOptions opts;
    // Small enough to force evictions while the pool is serving.
    opts.buffer_bytes = 256 << 10;
    auto fwd = SNodeRepr::Build(graph, TempPath("srv_f"), opts);
    auto bwd = SNodeRepr::Build(transpose, TempPath("srv_b"), opts);
    WG_CHECK(fwd.ok() && bwd.ok());
    forward = std::move(fwd).value();
    backward = std::move(bwd).value();
  }
};

std::vector<PageId> GroundTruthKHop(const WebGraph& graph, PageId start,
                                    int k) {
  std::vector<uint8_t> seen(graph.num_pages(), 0);
  std::vector<PageId> frontier = {start}, next, result;
  seen[start] = 1;
  for (int hop = 0; hop < k && !frontier.empty(); ++hop) {
    next.clear();
    for (PageId p : frontier) {
      for (PageId q : graph.OutLinks(p)) {
        if (!seen[q]) {
          seen[q] = 1;
          next.push_back(q);
          result.push_back(q);
        }
      }
    }
    frontier.swap(next);
  }
  std::sort(result.begin(), result.end());
  return result;
}

TEST(QueryServiceTest, ConcurrentMixedQueriesMatchGroundTruth) {
  ServerEnv& env = ServerEnv::Get();
  QueryServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 4096;
  QueryService service(env.Context(), opts);

  server::WorkloadOptions wopts;
  wopts.num_requests = 1500;
  wopts.num_pages = env.graph.num_pages();
  wopts.seed = 7;
  std::vector<Request> requests = server::SyntheticWorkload(wopts);

  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (const Request& request : requests) {
    futures.push_back(service.Submit(request));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_EQ(response.code, ResponseCode::kOk)
        << "request " << i << ": " << response.status.ToString();
    const Request& request = requests[i];
    switch (request.type) {
      case RequestType::kOutNeighbors: {
        auto expected = env.graph.OutLinks(request.page);
        ASSERT_EQ(response.pages.size(), expected.size()) << "request " << i;
        EXPECT_TRUE(std::equal(response.pages.begin(), response.pages.end(),
                               expected.begin()))
            << "request " << i;
        break;
      }
      case RequestType::kInNeighbors: {
        auto expected = env.transpose.OutLinks(request.page);
        ASSERT_EQ(response.pages.size(), expected.size()) << "request " << i;
        EXPECT_TRUE(std::equal(response.pages.begin(), response.pages.end(),
                               expected.begin()))
            << "request " << i;
        break;
      }
      case RequestType::kKHop:
        EXPECT_EQ(response.pages,
                  GroundTruthKHop(env.graph, request.page, request.k))
            << "request " << i;
        break;
      case RequestType::kComplexQuery:
        break;  // not in the synthetic mix
    }
  }
  server::ServiceMetrics metrics = service.Snapshot();
  EXPECT_EQ(metrics.submitted, requests.size());
  EXPECT_EQ(metrics.completed, requests.size());
  EXPECT_EQ(metrics.rejected, 0u);
  EXPECT_LE(metrics.p50_seconds, metrics.p99_seconds);
  EXPECT_GT(metrics.cache_hits, 0u);
}

TEST(QueryServiceTest, ConcurrentComplexQueriesMatchSingleThreadedRun) {
  ServerEnv& env = ServerEnv::Get();
  QueryServiceOptions opts;
  opts.num_workers = 4;
  QueryService service(env.Context(), opts);

  // Single-threaded reference results via the inline path.
  std::vector<QueryResult> reference;
  for (int q = 1; q <= kNumQueries; ++q) {
    Request request;
    request.type = RequestType::kComplexQuery;
    request.query_number = q;
    Response response = service.Execute(request);
    ASSERT_EQ(response.code, ResponseCode::kOk)
        << "query " << q << ": " << response.status.ToString();
    reference.push_back(std::move(response.query));
  }

  // All six queries, three rounds each, racing on the same two reprs.
  std::vector<std::future<Response>> futures;
  std::vector<int> numbers;
  for (int round = 0; round < 3; ++round) {
    for (int q = 1; q <= kNumQueries; ++q) {
      Request request;
      request.type = RequestType::kComplexQuery;
      request.query_number = q;
      numbers.push_back(q);
      futures.push_back(service.Submit(request));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_EQ(response.code, ResponseCode::kOk) << "query " << numbers[i];
    EXPECT_EQ(response.query.ranked, reference[numbers[i] - 1].ranked)
        << "query " << numbers[i];
  }
}

TEST(QueryServiceTest, SingleflightDecodesEachGraphOnce) {
  // A fresh repr so stats/caches are exclusively ours (its default 4 MiB
  // budget holds the whole store, so every repeat probe is within reach).
  ServerEnv& env = ServerEnv::Get();
  auto built = SNodeRepr::Build(env.graph, TempPath("srv_sf"), {});
  ASSERT_TRUE(built.ok());
  std::unique_ptr<SNodeRepr> repr = std::move(built).value();

  // The whole section of page 42's supernode: 1 intranode graph + one
  // superedge graph per outgoing superedge.
  const SupernodeGraph& sg = repr->supernode_graph();
  uint32_t s = sg.SupernodeOf(static_cast<PageId>(repr->LocalityKey(42)));
  uint64_t section_graphs = 1 + (sg.offsets[s + 1] - sg.offsets[s]);

  QueryContext ctx;
  ctx.forward = repr.get();
  QueryServiceOptions opts;
  opts.num_workers = 8;
  QueryService service(ctx, opts);

  // 32 concurrent identical requests. The first probe decodes the section
  // into its worker's scratch; every later probe is within the cache's
  // reach, so it assembles the section -- once, behind the assembled key's
  // singleflight -- or waits for or hits that block. Without singleflight,
  // racing probes would decode the section over and over.
  Request request;
  request.type = RequestType::kOutNeighbors;
  request.page = 42;
  std::vector<PageId> expected(env.graph.OutLinks(42).begin(),
                               env.graph.OutLinks(42).end());
  auto serve_32 = [&] {
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 32; ++i) futures.push_back(service.Submit(request));
    for (auto& future : futures) {
      Response response = future.get();
      ASSERT_EQ(response.code, ResponseCode::kOk);
      EXPECT_EQ(response.pages, expected);
    }
  };
  serve_32();
  // At most two decodes of the section: the first-touch scratch probe and
  // the admitted assembly; each read the store once.
  EXPECT_LE(repr->stats().graphs_loaded, 2 * section_graphs);
  EXPECT_EQ(repr->stats().cache_misses, repr->stats().graphs_loaded);
  EXPECT_LE(repr->stats().disk_reads, 2u);
  EXPECT_EQ(repr->cold_stats().assembles, 1u);
  // Once the assembled block is published, nothing reads the store again.
  uint64_t loaded = repr->stats().graphs_loaded;
  uint64_t reads = repr->stats().disk_reads;
  serve_32();
  EXPECT_EQ(repr->stats().graphs_loaded, loaded);
  EXPECT_EQ(repr->stats().disk_reads, reads);
  EXPECT_EQ(repr->cold_stats().assembles, 1u);
}

// Forwards to `base`, except that its cursors fail on `fail_page` and
// stall for `stall` in their first Links() call -- mid-expansion error and
// deadline exits for a k-hop request, and a slow handler (one stall per
// request) for the queue-full and deadline paths.
class FaultyRepr : public GraphRepresentation {
 public:
  FaultyRepr(GraphRepresentation* base, PageId fail_page,
             std::chrono::milliseconds stall)
      : base_(base), fail_page_(fail_page), stall_(stall) {}

  std::string name() const override { return base_->name(); }
  size_t num_pages() const override { return base_->num_pages(); }
  uint64_t num_edges() const override { return base_->num_edges(); }
  uint64_t LocalityKey(PageId p) const override {
    return base_->LocalityKey(p);
  }
  std::unique_ptr<AdjacencyCursor> NewCursor() override {
    return std::make_unique<Cursor>(base_->NewCursor(), fail_page_, stall_);
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
    Cursor(std::unique_ptr<AdjacencyCursor> inner, PageId fail_page,
           std::chrono::milliseconds stall)
        : inner_(std::move(inner)), fail_page_(fail_page), stall_(stall) {}
    Status Links(PageId p, LinkView* view) override {
      std::this_thread::sleep_for(stall_);
      stall_ = std::chrono::milliseconds(0);
      if (p == fail_page_) return Status::IOError("injected read failure");
      return inner_->Links(p, view);
    }

   private:
    std::unique_ptr<AdjacencyCursor> inner_;
    PageId fail_page_;
    std::chrono::milliseconds stall_;
  };

  GraphRepresentation* base_;
  PageId fail_page_;
  std::chrono::milliseconds stall_;
};

TEST(QueryServiceTest, KHopVisitedSetStaysCleanAcrossRequests) {
  // One worker, so every request shares its thread's visited bitmap: a bit
  // a request failed to clear drops that page from a later answer.
  ServerEnv& env = ServerEnv::Get();
  QueryServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(env.Context(), opts);
  auto khop = [&](PageId page, int k, std::chrono::milliseconds budget) {
    Request request;
    request.type = RequestType::kKHop;
    request.page = page;
    request.k = k;
    if (budget.count() > 0) {
      request.deadline = std::chrono::steady_clock::now() + budget;
    }
    return service.Submit(request).get();
  };
  auto expect_truth = [&](const WebGraph& graph, PageId page, int k) {
    Response response = khop(page, k, std::chrono::milliseconds(0));
    ASSERT_EQ(response.code, ResponseCode::kOk)
        << response.status.ToString();
    EXPECT_EQ(response.pages, GroundTruthKHop(graph, page, k))
        << "page " << page << " k " << k;
  };

  // Back to back over overlapping neighborhoods.
  for (PageId page = 0; page < 40; page += 4) {
    for (int k = 1; k <= 3; ++k) expect_truth(env.graph, page, k);
  }

  // Exits that leave a partial result behind: a read error in the second
  // level, then a deadline that passes while the first level is read.
  PageId start = 0;
  while (env.graph.out_degree(start) < 2) ++start;
  PageId fail = env.graph.OutLinks(start)[0];
  if (fail == start) fail = env.graph.OutLinks(start)[1];
  service.SwapForward(std::make_shared<FaultyRepr>(
      env.forward.get(), fail, std::chrono::milliseconds(0)));
  EXPECT_EQ(khop(start, 3, std::chrono::milliseconds(0)).code,
            ResponseCode::kError);
  service.SwapForward(std::make_shared<FaultyRepr>(
      env.forward.get(), kInvalidPage, std::chrono::milliseconds(300)));
  Response expired = khop(start, 3, std::chrono::milliseconds(100));
  EXPECT_EQ(expired.code, ResponseCode::kDeadlineExceeded);
  EXPECT_TRUE(expired.pages.empty());
  service.SwapForward(nullptr);
  expect_truth(env.graph, start, 3);
  expect_truth(env.graph, fail, 2);

  // A generation with more pages grows the bitmap.
  GeneratorOptions gopts;
  gopts.num_pages = env.graph.num_pages() + 3000;
  gopts.seed = 72;
  WebGraph bigger = GenerateWebGraph(gopts);
  auto built = SNodeRepr::Build(bigger, TempPath("srv_khop_big"), {});
  ASSERT_TRUE(built.ok());
  service.SwapForward(std::shared_ptr<GraphRepresentation>(
      std::move(built).value()));
  for (PageId page = 0; page < bigger.num_pages(); page += 997) {
    for (int k = 1; k <= 3; ++k) expect_truth(bigger, page, k);
  }
  expect_truth(bigger, static_cast<PageId>(bigger.num_pages() - 1), 3);
  service.SwapForward(nullptr);
  for (PageId page = 0; page < 40; page += 4) expect_truth(env.graph, page, 3);
}

// Snapshot() counts the decoded-graph cache across a generation flip:
// what generation A counted before the swap plus what B counted after.
TEST(QueryServiceTest, CacheCountersSpanGenerationFlips) {
  ServerEnv& env = ServerEnv::Get();
  SNodeBuildOptions opts;
  opts.buffer_bytes = 256 << 10;
  auto built_a = SNodeRepr::Build(env.graph, TempPath("srv_gen_a"), opts);
  auto built_b = SNodeRepr::Build(env.graph, TempPath("srv_gen_b"), opts);
  ASSERT_TRUE(built_a.ok() && built_b.ok());
  std::shared_ptr<SNodeRepr> gen_a = std::move(built_a).value();
  std::shared_ptr<SNodeRepr> gen_b = std::move(built_b).value();

  QueryServiceOptions service_opts;
  service_opts.queue_capacity = 512;
  QueryService service(QueryContext{}, service_opts);
  auto serve = [&](uint64_t seed) {
    server::WorkloadOptions wopts;
    wopts.num_requests = 500;
    wopts.seed = seed;
    wopts.num_pages = env.graph.num_pages();
    wopts.in_weight = 0;  // forward-only, like a snapshot generation
    std::vector<std::future<Response>> futures;
    for (const Request& request : server::SyntheticWorkload(wopts)) {
      futures.push_back(service.Submit(request));
    }
    for (auto& future : futures) {
      ASSERT_EQ(future.get().code, ResponseCode::kOk);
    }
  };
  service.SwapForward(gen_a);
  serve(1);
  const uint64_t a_hits = gen_a->stats().cache_hits;
  const uint64_t a_misses = gen_a->stats().cache_misses;
  EXPECT_GT(a_hits, 0u);
  EXPECT_GT(a_misses, 0u);
  service.SwapForward(gen_b);
  serve(2);
  EXPECT_GT(gen_b->stats().cache_hits, 0u);

  server::ServiceMetrics metrics = service.Snapshot();
  EXPECT_EQ(metrics.cache_hits, a_hits + gen_b->stats().cache_hits);
  EXPECT_EQ(metrics.cache_misses, a_misses + gen_b->stats().cache_misses);
}

TEST(QueryServiceTest, StraddlingSectionsServeConcurrently) {
  // Small pack files spread the store over many packs, each section in
  // one, so every section read is one pread; four workers queue on
  // io_mutex_ for them while their decodes run in parallel. Answers must
  // match the crawl; under the TSan preset the workers must not race.
  ServerEnv& env = ServerEnv::Get();
  SNodeBuildOptions bopts;
  bopts.store.max_file_size = 4096;
  bopts.buffer_bytes = 64 << 10;  // keep evicting, so reads keep coming
  auto built = SNodeRepr::Build(env.graph, TempPath("srv_straddle"), bopts);
  ASSERT_TRUE(built.ok());
  std::unique_ptr<SNodeRepr> repr = std::move(built).value();
  ASSERT_GE(repr->store().num_files(), 4u);
  const uint64_t seeks = repr->stats().disk_seeks;

  QueryContext ctx;
  ctx.forward = repr.get();
  QueryServiceOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 4096;
  {
    QueryService service(ctx, opts);
    std::vector<std::future<Response>> futures;
    for (PageId p = 0; p < env.graph.num_pages(); p += 3) {
      Request request;
      request.type = RequestType::kOutNeighbors;
      request.page = p;
      futures.push_back(service.Submit(request));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      PageId p = static_cast<PageId>(3 * i);
      Response response = futures[i].get();
      ASSERT_EQ(response.code, ResponseCode::kOk)
          << "page " << p << ": " << response.status.ToString();
      auto expected = env.graph.OutLinks(p);
      EXPECT_TRUE(std::equal(response.pages.begin(), response.pages.end(),
                             expected.begin(), expected.end()))
          << "page " << p;
    }
  }
  // One section per read: no read costs more than one seek.
  EXPECT_GT(repr->stats().disk_reads, 0u);
  EXPECT_LE(repr->stats().disk_seeks - seeks, repr->stats().disk_reads);
  EXPECT_EQ(repr->PinnedCacheEntries(), 0u);
}

TEST(QueryServiceTest, QueueFullRequestsAreRejectedWithStatus) {
  ServerEnv& env = ServerEnv::Get();
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 2;
  QueryService service(env.Context(), opts);
  service.SwapForward(std::make_shared<FaultyRepr>(
      env.forward.get(), kInvalidPage, std::chrono::milliseconds(200)));

  // The worker parks on the first request for 200ms; the queue holds two
  // more; everything past that must be refused at admission.
  Request slow;
  slow.type = RequestType::kOutNeighbors;
  slow.page = 1;
  std::vector<std::future<Response>> futures;
  futures.push_back(service.Submit(slow));
  Request fast;
  fast.type = RequestType::kOutNeighbors;
  fast.page = 2;
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit(fast));

  size_t rejected = 0, ok = 0;
  for (auto& future : futures) {
    Response response = future.get();
    if (response.code == ResponseCode::kRejected) {
      ++rejected;
    } else {
      ASSERT_EQ(response.code, ResponseCode::kOk);
      ++ok;
    }
  }
  EXPECT_GE(rejected, 6u);  // capacity 2 + the in-flight slow request
  EXPECT_GE(ok, 1u);
  server::ServiceMetrics metrics = service.Snapshot();
  EXPECT_EQ(metrics.rejected, rejected);
  EXPECT_EQ(metrics.submitted, futures.size());
}

TEST(QueryServiceTest, ExpiredDeadlineSkipsExecution) {
  ServerEnv& env = ServerEnv::Get();
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 16;
  QueryService service(env.Context(), opts);
  service.SwapForward(std::make_shared<FaultyRepr>(
      env.forward.get(), kInvalidPage, std::chrono::milliseconds(100)));

  Request slow;
  slow.type = RequestType::kOutNeighbors;
  slow.page = 1;
  auto slow_future = service.Submit(slow);

  // Expires while waiting behind the slow request.
  Request doomed;
  doomed.type = RequestType::kOutNeighbors;
  doomed.page = 2;
  doomed.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  auto doomed_future = service.Submit(doomed);

  EXPECT_EQ(slow_future.get().code, ResponseCode::kOk);
  Response response = doomed_future.get();
  EXPECT_EQ(response.code, ResponseCode::kDeadlineExceeded);
  EXPECT_TRUE(response.pages.empty());
  EXPECT_EQ(service.Snapshot().timed_out, 1u);
}

TEST(QueryServiceTest, SubmitAfterShutdownIsRejected) {
  ServerEnv& env = ServerEnv::Get();
  QueryService service(env.Context(), {});
  service.Shutdown();
  Request request;
  request.type = RequestType::kOutNeighbors;
  request.page = 0;
  Response response = service.Submit(request).get();
  EXPECT_EQ(response.code, ResponseCode::kRejected);
}

// Sums `wg_service_requests_total{...,outcome="<outcome>"}` across every
// service instance in a Prometheus text dump.
uint64_t SumOutcome(const std::string& text, const std::string& outcome) {
  uint64_t sum = 0;
  std::istringstream in(text);
  std::string line;
  const std::string want = "outcome=\"" + outcome + "\"";
  while (std::getline(in, line)) {
    if (line.rfind("wg_service_requests_total{", 0) != 0) continue;
    if (line.find(want) == std::string::npos) continue;
    sum += std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
  }
  return sum;
}

TEST(QueryServiceTest, OutcomeCountersReachRegistryExposition) {
  // The constructor must *bind* the outcome counters to the registry, not
  // value-assign them: Snapshot() and the exposition have to read the
  // same cells. Each service labels its own series, so diff the summed
  // totals against whatever earlier tests left in the Default registry.
  ServerEnv& env = ServerEnv::Get();
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  uint64_t submitted_before = SumOutcome(registry.PrometheusText(),
                                         "submitted");
  uint64_t completed_before = SumOutcome(registry.PrometheusText(),
                                         "completed");
  constexpr uint64_t kRequests = 7;
  {
    QueryService service(env.Context(), {});
    for (uint64_t i = 0; i < kRequests; ++i) {
      Request request;
      request.type = RequestType::kOutNeighbors;
      request.page = static_cast<PageId>(i);
      ASSERT_EQ(service.Submit(request).get().code, ResponseCode::kOk);
    }
    server::ServiceMetrics snapshot = service.Snapshot();
    EXPECT_EQ(snapshot.submitted, kRequests);
    EXPECT_EQ(snapshot.completed, kRequests);
  }
  std::string text = registry.PrometheusText();
  EXPECT_EQ(SumOutcome(text, "submitted") - submitted_before, kRequests);
  EXPECT_EQ(SumOutcome(text, "completed") - completed_before, kRequests);
}

}  // namespace
}  // namespace wg
