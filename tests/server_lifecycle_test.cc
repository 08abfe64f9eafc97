// server::Server in process: the generation poller's flips, degraded mode
// on a refused flip and recovery once the store is repaired,
// auto-compaction at the backlog threshold and its backoff after a failed
// compaction, the poller thread flipping under load, and the admin plane's
// /healthz and /statusz bodies. Poll() is stepped directly, so nothing
// sleeps on the poller's 100 ms tick, and the SIGPROF profiler stays off.
// The `server` name prefix puts this under the `concurrency` ctest label
// and in the TSan sweep.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "snode/snode_repr.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/file.h"
#include "version/snapshot.h"
#include "test_temp_dir.h"

namespace wg {
namespace {

using server::Request;
using server::RequestType;
using server::Response;
using server::ResponseCode;
using server::Server;
using server::ServerOptions;
using version::DeltaRecord;
using version::SnapshotManager;

using test::TempDirFor;

WebGraph BaseGraph() {
  GeneratorOptions opts;
  opts.num_pages = 900;
  opts.seed = 31;
  return GenerateWebGraph(opts);
}

// A snapshot directory holding generation 0 of BaseGraph().
std::string CreateSnapshot(const std::string& name) {
  std::string dir = TempDirFor(name);
  WG_CHECK(SnapshotManager::Create(dir, BaseGraph(), {}).ok());
  return dir;
}

// Adds page `id` with links id -> `to` and `from` -> id: three records.
std::vector<DeltaRecord> AddPageBatch(PageId id, PageId to, PageId from) {
  std::string host = "www.p" + std::to_string(id) + ".example.org";
  return {DeltaRecord::AddPage(id, "http://" + host + "/p.html", host,
                               "example.org"),
          DeltaRecord::AddLink(id, to), DeltaRecord::AddLink(from, id)};
}

void FlipByte(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  unsigned char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  byte ^= 0xFF;
  ASSERT_EQ(::pwrite(fd, &byte, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

struct HttpResult {
  int status = 0;
  std::string body;
};

HttpResult HttpGet(uint16_t port, const std::string& path) {
  HttpResult result;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), 0) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        raw.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  size_t split = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || split == std::string::npos) {
    return result;
  }
  result.status = std::atoi(raw.c_str() + 9);
  result.body = raw.substr(split + 4);
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

bool DegradedGaugeReads(int value) {
  std::string text = obs::MetricRegistry::Default().PrometheusText();
  return text.find("\nwg_degraded " + std::to_string(value) + "\n") !=
         std::string::npos;
}

// Out-links of `page` as the server answers them now.
std::vector<PageId> OutLinks(Server& server, PageId page) {
  Request request;
  request.type = RequestType::kOutNeighbors;
  request.page = page;
  Response response = server.service().Submit(request).get();
  EXPECT_EQ(response.code, ResponseCode::kOk) << response.status.ToString();
  return response.pages;
}

bool Contains(const std::vector<PageId>& pages, PageId page) {
  return std::find(pages.begin(), pages.end(), page) != pages.end();
}

ServerOptions SnapshotOptionsFor(const std::string& dir) {
  ServerOptions options;
  options.snapshot = dir;
  options.workers = 2;
  return options;
}

TEST(ServerLifecycleTest, FlipsToGenerationAnotherManagerCompacted) {
  std::string dir = CreateSnapshot("flip");
  auto opened = Server::OpenSnapshot(SnapshotOptionsFor(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Server& server = *opened.value();
  const PageId n = 900;
  ASSERT_EQ(server.num_pages(), n);
  EXPECT_FALSE(Contains(OutLinks(server, 5), n));

  // Nothing new: a tick changes nothing.
  testing::internal::CaptureStdout();
  server.Poll();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");

  auto writer = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendDeltas(AddPageBatch(n, 1, 5)).ok());
  ASSERT_TRUE(writer.value()->Compact().ok());

  testing::internal::CaptureStdout();
  server.Poll();
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.rfind("flipped to generation 1 (901 pages, ", 0), 0u) << out;
  EXPECT_EQ(server.num_pages(), n + 1);
  EXPECT_EQ(server.service().CurrentForward()->num_pages(), n + 1);
  EXPECT_TRUE(Contains(OutLinks(server, 5), n));
  EXPECT_EQ(OutLinks(server, n), std::vector<PageId>({1}));
  EXPECT_TRUE(server.Stop().ok());
}

TEST(ServerLifecycleTest, RefusedFlipServesOldGenerationUntilRepaired) {
  std::string dir = CreateSnapshot("degraded");
  ServerOptions options = SnapshotOptionsFor(dir);
  options.admin_port = 0;
  options.health_file = dir + "/health";
  auto opened = Server::OpenSnapshot(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Server& server = *opened.value();
  ASSERT_NE(server.admin_port(), 0);
  EXPECT_EQ(ReadFile(options.health_file), "ok generation=0\n");
  const std::vector<PageId> gen0_links = OutLinks(server, 5);

  // Another process publishes generation 1, and one byte of a section it
  // wrote into its own pack goes bad.
  auto writer = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendDeltas(AddPageBatch(900, 2, 5)).ok());
  auto gen1 = writer.value()->Compact();
  ASSERT_TRUE(gen1.ok());
  const GraphStore& store = gen1.value()->repr->store();
  std::string pack;
  uint64_t offset = 0;
  for (uint32_t s = 0; s < store.num_sections() && pack.empty(); ++s) {
    const GraphStore::Section& section = store.section(s);
    std::string path = store.FilePath(section.file_index);
    if (section.length > 0 && path.find("gen-000001") != std::string::npos) {
      pack = path;
      offset = section.offset;
    }
  }
  ASSERT_FALSE(pack.empty()) << "generation 1 wrote no section of its own";
  FlipByte(pack, offset);

  testing::internal::CaptureStderr();
  server.Poll();
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("degraded: keeping generation 0; refused flip: ", 0),
            0u)
      << err;
  // The old generation keeps serving.
  EXPECT_EQ(server.service().CurrentForward()->num_pages(), 900u);
  EXPECT_EQ(OutLinks(server, 5), gen0_links);
  EXPECT_TRUE(DegradedGaugeReads(1));
  HttpResult health = HttpGet(server.admin_port(), "/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(health.body.rfind("degraded generation=0 reason=Corruption", 0),
            0u)
      << health.body;
  EXPECT_NE(health.body.find("\ndegraded: 1\nreason: Corruption"),
            std::string::npos)
      << health.body;
  EXPECT_EQ(ReadFile(options.health_file)
                .rfind("degraded generation=0 reason=Corruption", 0),
            0u);
  // Still degraded: a second refusal reports nothing new.
  testing::internal::CaptureStderr();
  server.Poll();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Repaired: the next tick recovers and flips.
  FlipByte(pack, offset);
  testing::internal::CaptureStdout();
  server.Poll();
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.rfind("recovered: flip path healthy again\n"
                      "flipped to generation 1 (901 pages, ",
                      0),
            0u)
      << out;
  EXPECT_EQ(server.service().CurrentForward()->num_pages(), 901u);
  EXPECT_TRUE(Contains(OutLinks(server, 5), 900));
  EXPECT_TRUE(DegradedGaugeReads(0));
  health = HttpGet(server.admin_port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body.rfind("ok generation=1\n", 0), 0u) << health.body;
  EXPECT_EQ(ReadFile(options.health_file), "ok generation=1\n");
  EXPECT_TRUE(server.Stop().ok());
}

TEST(ServerLifecycleTest, AutoCompactsAtBacklogAndBacksOffAfterFailure) {
  std::string dir = CreateSnapshot("autocompact");
  ServerOptions options = SnapshotOptionsFor(dir);
  options.auto_compact_backlog = 4;
  auto opened = Server::OpenSnapshot(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Server& server = *opened.value();
  auto writer = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(writer.ok());

  // Three pending records: below the threshold, nothing is folded.
  ASSERT_TRUE(writer.value()->AppendDeltas(AddPageBatch(900, 1, 5)).ok());
  testing::internal::CaptureStdout();
  server.Poll();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(server.num_pages(), 900u);

  // The fourth reaches it: the server folds all four and flips.
  ASSERT_TRUE(
      writer.value()->AppendDeltas({DeltaRecord::AddLink(7, 900)}).ok());
  testing::internal::CaptureStdout();
  server.Poll();
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.rfind("auto-compact: folded 4 pending records into "
                      "generation 1\n"
                      "flipped to generation 1 (901 pages, ",
                      0),
            0u)
      << out;
  EXPECT_EQ(server.num_pages(), 901u);

  // A compaction that fails (every write into the directory fails) ...
  ASSERT_TRUE(writer.value()->Refresh().ok());
  ASSERT_TRUE(writer.value()->AppendDeltas(AddPageBatch(901, 2, 9)).ok());
  ASSERT_TRUE(
      writer.value()->AppendDeltas({DeltaRecord::AddLink(11, 901)}).ok());
  FaultInjectingEnv::Options fault;
  fault.fail_writes = true;
  fault.path_filter = dir;
  FaultInjectingEnv env(fault);
  Env::Install(&env);
  testing::internal::CaptureStderr();
  server.Poll();
  Env::Install(nullptr);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.rfind("auto-compact failed, backing off: ", 0), 0u) << err;
  EXPECT_EQ(server.num_pages(), 901u);

  // ... is not retried within the backoff, although the disk is healthy
  // again and the backlog is still over the threshold ...
  for (int tick = 0; tick < 50; ++tick) server.Poll();
  EXPECT_EQ(server.num_pages(), 901u);

  // ... and is retried on the first tick after it.
  testing::internal::CaptureStdout();
  server.Poll();
  out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.rfind("auto-compact: folded 4 pending records into "
                      "generation 2\n",
                      0),
            0u)
      << out;
  EXPECT_EQ(server.num_pages(), 902u);
  EXPECT_TRUE(server.Stop().ok());
}

TEST(ServerLifecycleTest, PollerThreadFlipsWhileServing) {
  std::string dir = CreateSnapshot("poller");
  auto opened = Server::OpenSnapshot(SnapshotOptionsFor(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Server& server = *opened.value();
  server.StartPoller();
  auto writer = SnapshotManager::Open(dir, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->AppendDeltas(AddPageBatch(900, 1, 5)).ok());
  ASSERT_TRUE(writer.value()->Compact().ok());

  // Requests keep flowing while the poller thread flips underneath them.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool flipped = false;
  while (!flipped && std::chrono::steady_clock::now() < deadline) {
    std::vector<std::future<Response>> futures;
    for (PageId page = 0; page < 64; ++page) {
      Request request;
      request.type = RequestType::kKHop;
      request.page = page;
      request.k = 2;
      futures.push_back(server.service().Submit(request));
    }
    for (auto& future : futures) {
      Response response = future.get();
      EXPECT_EQ(response.code, ResponseCode::kOk)
          << response.status.ToString();
    }
    flipped = server.service().CurrentForward()->num_pages() == 901;
  }
  EXPECT_TRUE(flipped);
  EXPECT_TRUE(Contains(OutLinks(server, 5), 900));
  EXPECT_TRUE(server.Stop().ok());
}

TEST(ServerLifecycleTest, LocalBuildAdminPlane) {
  WebGraph graph = BaseGraph();
  WebGraph transpose = graph.Transpose();
  std::string dir = TempDirFor("local");
  auto forward = SNodeRepr::Build(graph, dir + "/fwd", {});
  auto backward = SNodeRepr::Build(transpose, dir + "/bwd", {});
  ASSERT_TRUE(forward.ok() && backward.ok());
  QueryContext query;
  query.graph = &graph;
  ServerOptions options;
  options.workers = 2;
  options.admin_port = 0;
  auto served = Server::ServeBuilt(options, forward.value().get(),
                                   backward.value().get(), query);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Server& server = *served.value();
  EXPECT_EQ(OutLinks(server, 3).size(), graph.out_degree(3));

  HttpResult health = HttpGet(server.admin_port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body,
            "ok generation=0\n"
            "generation: 0\n"
            "degraded: 0\n"
            "reason: -\n"
            "quarantined_sections: 0\n"
            "checksum_failures: 0\n");

  HttpResult status = HttpGet(server.admin_port(), "/statusz");
  EXPECT_EQ(status.status, 200);
  for (const char* line :
       {"wgserve statusz\n", "\nmode: local-build\n", "\ngeneration: 0\n",
        "\npages: 900\n", "\ncache_bytes: ", "\npinned_entries: 0\n",
        "\nworkers: 2\nqueue_capacity: 256\n", "\nprofiler: off, ",
        "\ntracez: on, ", "\nmetric_series: "}) {
    EXPECT_NE(status.body.find(line), std::string::npos)
        << line << " in:\n"
        << status.body;
  }
  EXPECT_EQ(status.body.find("warmer"), std::string::npos) << status.body;
  EXPECT_TRUE(DegradedGaugeReads(0));

  testing::internal::CaptureStdout();
  EXPECT_TRUE(server.Stop().ok());
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.rfind("pinned cache entries after drain: 0 fwd, 0 bwd\n"
                      "\nsubmitted=1 completed=1 ",
                      0),
            0u)
      << out;
  EXPECT_NE(out.find("\nadmin: served 2 requests\n"), std::string::npos)
      << out;
}

}  // namespace
}  // namespace wg
