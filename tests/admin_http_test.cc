// The live introspection plane: the embedded admin HTTP server
// (in-process: dispatch, parsing, bounded worker pool, introspection
// endpoints), the SIGPROF sampling profiler, and an end-to-end smoke that
// boots the wgserve binary with --admin-port 0 and scrapes it like a
// monitoring system would. Carries the `obs` and `concurrency` ctest
// labels; the TSan sweep runs the in-process parts under the sanitizer.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/admin_http.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wg::obs {
namespace {

// --- tiny HTTP/1.1 client (raw sockets, Connection: close) --------------

struct HttpResult {
  bool ok = false;        // transport-level success
  int status = 0;
  std::string headers;    // raw header block
  std::string body;
};

HttpResult HttpFetch(uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  HttpResult result;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval tv;
  tv.tv_sec = 60;  // generous: the pprof endpoint sleeps before replying
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return result;
  }
  std::string request = method + " " + target +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  if (::send(fd, request.data(), request.size(), 0) !=
      static_cast<ssize_t>(request.size())) {
    ::close(fd);
    return result;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    return result;
  }
  result.status = std::atoi(raw.c_str() + 9);
  result.headers = raw.substr(0, split);
  result.body = raw.substr(split + 4);
  result.ok = true;
  return result;
}

// --- AdminServer ---------------------------------------------------------

TEST(AdminServerTest, DispatchAndIndex) {
  AdminServer server;  // port 0: kernel-assigned
  server.Handle("/hello", [](const AdminRequest&) {
    AdminResponse response;
    response.body = "hi there\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(0, server.port());

  HttpResult r = HttpFetch(server.port(), "/hello");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_EQ("hi there\n", r.body);
  EXPECT_NE(std::string::npos, r.headers.find("Content-Length: 9"));

  // "/" renders an index of registered endpoints.
  r = HttpFetch(server.port(), "/");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_NE(std::string::npos, r.body.find("/hello"));

  // Unknown paths 404 but still show the index (a human's first scrape).
  r = HttpFetch(server.port(), "/nope");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(404, r.status);
  EXPECT_NE(std::string::npos, r.body.find("/hello"));

  // Only GET/HEAD are served.
  r = HttpFetch(server.port(), "/hello", "POST");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(405, r.status);

  // HEAD returns headers (with the true content length) and no body.
  r = HttpFetch(server.port(), "/hello", "HEAD");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_NE(std::string::npos, r.headers.find("Content-Length: 9"));
  EXPECT_TRUE(r.body.empty());

  EXPECT_GE(server.requests_served(), 5u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(AdminServerTest, QueryParamsDecodedAndClamped) {
  AdminServer server;
  server.Handle("/echo", [](const AdminRequest& request) {
    AdminResponse response;
    auto it = request.params.find("name");
    response.body += it != request.params.end() ? it->second : "<absent>";
    response.body += "|";
    response.body += std::to_string(request.IntParam("n", 7, 1, 30));
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  HttpResult r = HttpFetch(server.port(), "/echo?name=a%20b+c&n=100");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ("a b c|30", r.body);  // %20 and '+' decode; n clamps to max

  r = HttpFetch(server.port(), "/echo?n=0");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ("<absent>|1", r.body);  // clamps to min

  r = HttpFetch(server.port(), "/echo?n=banana");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ("<absent>|7", r.body);  // unparseable -> fallback
}

TEST(AdminServerTest, MalformedRequestLineIs400) {
  AdminServer server;
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  const char garbage[] = "NOT-HTTP\r\n\r\n";
  ASSERT_EQ(static_cast<ssize_t>(sizeof(garbage) - 1),
            ::send(fd, garbage, sizeof(garbage) - 1, 0));
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
  ASSERT_GT(n, 0);
  buf[n] = '\0';
  EXPECT_NE(nullptr, std::strstr(buf, "HTTP/1.1 400"));
  ::close(fd);
}

TEST(AdminServerTest, ConcurrentScrapesAllServed) {
  AdminServer server;
  std::atomic<uint64_t> calls{0};
  server.Handle("/busy", [&calls](const AdminRequest&) {
    ++calls;
    AdminResponse response;
    response.body = std::string(4096, 'x');  // multi-send body
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kFetches = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &failures] {
      for (int i = 0; i < kFetches; ++i) {
        HttpResult r = HttpFetch(server.port(), "/busy");
        if (!r.ok || r.status != 200 || r.body.size() != 4096) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kFetches, calls.load());
}

// --- introspection endpoints ---------------------------------------------

TEST(IntrospectionTest, MetricsEndpointsServeRegistry) {
  MetricRegistry registry;
  registry.GetCounter("wg_admin_test_total", {{"k", "v"}}, "A counter") += 5;
  AdminServer server;
  RegisterIntrospection(server, registry);
  ASSERT_TRUE(server.Start().ok());

  HttpResult r = HttpFetch(server.port(), "/metrics");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_NE(std::string::npos,
            r.headers.find("Content-Type: text/plain; version=0.0.4"));
  EXPECT_NE(std::string::npos,
            r.body.find("wg_admin_test_total{k=\"v\"} 5"));

  r = HttpFetch(server.port(), "/metrics.json");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_NE(std::string::npos, r.headers.find("application/json"));
  EXPECT_NE(std::string::npos, r.body.find("\"wg_admin_test_total\""));
}

TEST(IntrospectionTest, TracezReflectsRingState) {
  MetricRegistry registry;
  AdminServer server;
  RegisterIntrospection(server, registry);
  ASSERT_TRUE(server.Start().ok());

  Tracer::Global().DisableRing();
  HttpResult r = HttpFetch(server.port(), "/tracez");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(503, r.status);  // ring off: say so instead of an empty page

  TraceRingOptions options;
  options.slow_threshold_us = 0;  // everything pins as slow
  Tracer::Global().EnableRing(options);
  Tracer::Global().ring().Clear();
  {
    Span root("k-hop", "service", Span::RootTag{});
    Span child("cache.lookup", "cache");
  }
  r = HttpFetch(server.port(), "/tracez");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_NE(std::string::npos, r.body.find("k-hop")) << r.body;
  EXPECT_NE(std::string::npos, r.body.find("phases")) << r.body;
  EXPECT_NE(std::string::npos, r.body.find("SLOW")) << r.body;
  Tracer::Global().DisableRing();
  Tracer::Global().ring().Clear();
}

TEST(IntrospectionTest, ProfileEndpointReflectsProfilerState) {
  MetricRegistry registry;
  AdminServer server;
  RegisterIntrospection(server, registry);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_FALSE(Profiler::Global().running());
  HttpResult r = HttpFetch(server.port(), "/pprof/profile?seconds=1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(503, r.status);

  ASSERT_TRUE(Profiler::Global().Start(200).ok());
  // Burn CPU in the background so the 1-second window catches samples
  // (the SIGPROF itimer counts consumed CPU time, not wall time).
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    volatile uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) sink = sink * 31 + 1;
  });
  r = HttpFetch(server.port(), "/pprof/profile?seconds=1");
  stop.store(true);
  burner.join();
  Profiler::Global().Stop();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(200, r.status);
  EXPECT_FALSE(r.body.empty());
}

// --- profiler ------------------------------------------------------------

TEST(ProfilerTest, CapturesSamplesWhileBurningCpu) {
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start(250).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(250, profiler.hz());

  uint64_t begin = profiler.samples();
  volatile uint64_t sink = 0;
  // Burn CPU until samples arrive (bounded: ~4s of CPU at 250 hz yields
  // ~1000 expected samples, so 10 is conservative).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (profiler.samples() < begin + 10 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1000000; ++i) sink = sink * 31 + 1;
  }
  uint64_t end = profiler.samples();
  ASSERT_GE(end, begin + 10) << "no SIGPROF samples while burning CPU";

  std::string collapsed = profiler.Collapsed(begin, end);
  ASSERT_FALSE(collapsed.empty());
  // Collapsed-stack format: every line is "frame(;frame)* count".
  uint64_t total = 0;
  std::istringstream lines(collapsed);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(std::string::npos, space) << line;
    ASSERT_GT(space, 0u) << line;
    uint64_t count = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    EXPECT_GT(count, 0u) << line;
    total += count;
  }
  EXPECT_EQ(end - begin, total);  // every window sample lands in some stack

  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  uint64_t after_stop = profiler.samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 1000000; ++i) sink = sink * 31 + 1;
  EXPECT_EQ(after_stop, profiler.samples());  // timer really off
}

TEST(ProfilerTest, RestartChangesRate) {
  Profiler& profiler = Profiler::Global();
  ASSERT_TRUE(profiler.Start(50).ok());
  EXPECT_EQ(50, profiler.hz());
  ASSERT_TRUE(profiler.Start(99).ok());  // idempotent re-start, new rate
  EXPECT_EQ(99, profiler.hz());
  profiler.Stop();
  profiler.Stop();  // idempotent
  EXPECT_FALSE(profiler.running());
}

TEST(ProfilerTest, EmptyWindowCollapsesToEmpty) {
  Profiler& profiler = Profiler::Global();
  uint64_t now = profiler.samples();
  EXPECT_TRUE(profiler.Collapsed(now, now).empty());
}

// --- end-to-end: scrape a live wgserve -----------------------------------

#ifdef WGSERVE_BIN_PATH

// Where a local-build wgserve keeps its stores.
std::string ServeStoreDir(pid_t pid) {
  return "/tmp/wgserve_" + std::to_string(pid);
}

struct ServeProcess {
  pid_t pid = -1;
  std::FILE* out = nullptr;

  ~ServeProcess() {
    if (out != nullptr) std::fclose(out);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      // A killed wgserve cannot clean up after itself.
      std::error_code ignored;
      std::filesystem::remove_all(ServeStoreDir(pid), ignored);
    }
  }
};

// Forks wgserve with the given args, stdout piped back; returns the
// child's pid and a FILE* for its stdout.
bool SpawnServe(const std::vector<std::string>& args, ServeProcess* proc) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(WGSERVE_BIN_PATH));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(WGSERVE_BIN_PATH, argv.data());
    _exit(127);
  }
  ::close(pipe_fds[1]);
  proc->pid = pid;
  proc->out = ::fdopen(pipe_fds[0], "r");
  return proc->out != nullptr;
}

TEST(WgserveSmokeTest, AdminPlaneServesUnderLoad) {
  ServeProcess proc;
  ASSERT_TRUE(SpawnServe({"--pages", "400", "--requests", "4000",
                          "--workers", "2", "--admin-port", "0",
                          "--slow-us", "0", "--linger", "60"},
                         &proc));

  // The admin line is printed (and flushed) right after bind, before the
  // workload starts, so the scrapes below race the serving loop -- which
  // is the point: the introspection plane must answer under load.
  uint16_t port = 0;
  char line[512];
  for (int i = 0; i < 100 && std::fgets(line, sizeof(line), proc.out); ++i) {
    int parsed = 0;
    if (std::sscanf(line, "admin: listening on 127.0.0.1:%d", &parsed) == 1) {
      port = static_cast<uint16_t>(parsed);
      break;
    }
  }
  ASSERT_NE(0, port) << "wgserve never announced its admin port";

  // /metrics: the service counters and the degraded gauge must be
  // exposed (wg_degraded at 0 -- healthy -- not merely absent).
  HttpResult metrics = HttpFetch(port, "/metrics");
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(200, metrics.status);
  EXPECT_NE(std::string::npos, metrics.body.find("wg_service_requests_total"))
      << metrics.body.substr(0, 2000);
  EXPECT_NE(std::string::npos, metrics.body.find("wg_degraded 0"))
      << metrics.body.substr(0, 2000);

  HttpResult json = HttpFetch(port, "/metrics.json");
  ASSERT_TRUE(json.ok);
  EXPECT_EQ(200, json.status);
  EXPECT_NE(std::string::npos, json.body.find("wg_service_requests_total"))
      << json.body.substr(0, 2000);

  // /healthz: healthy, generation 0 (local build, not a snapshot store).
  HttpResult health = HttpFetch(port, "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(200, health.status);
  EXPECT_EQ(0u, health.body.find("ok generation=")) << health.body;
  EXPECT_NE(std::string::npos, health.body.find("degraded: 0"))
      << health.body;

  HttpResult statusz = HttpFetch(port, "/statusz");
  ASSERT_TRUE(statusz.ok);
  EXPECT_EQ(200, statusz.status);
  EXPECT_NE(std::string::npos, statusz.body.find("mode: local-build"))
      << statusz.body;
  EXPECT_NE(std::string::npos, statusz.body.find("cache_bytes:"))
      << statusz.body;
  EXPECT_NE(std::string::npos, statusz.body.find("profiler: on"))
      << statusz.body;

  // Give the workload a moment to push traces through the ring, then ask
  // /tracez for the per-phase breakdown (--slow-us 0 pins everything, and
  // the synthetic mix always contains k-hop requests).
  std::string tracez_body;
  for (int attempt = 0; attempt < 50; ++attempt) {
    HttpResult tracez = HttpFetch(port, "/tracez");
    ASSERT_TRUE(tracez.ok);
    EXPECT_EQ(200, tracez.status);
    tracez_body = tracez.body;
    if (tracez_body.find("k-hop") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_NE(std::string::npos, tracez_body.find("k-hop")) << tracez_body;
  EXPECT_NE(std::string::npos, tracez_body.find("phases")) << tracez_body;
  EXPECT_NE(std::string::npos, tracez_body.find("SLOW")) << tracez_body;
  EXPECT_NE(std::string::npos, tracez_body.find("[service]")) << tracez_body;

  // /pprof/profile: the always-on profiler answers with a (possibly
  // empty-window) collapsed profile.
  HttpResult profile = HttpFetch(port, "/pprof/profile?seconds=1");
  ASSERT_TRUE(profile.ok);
  EXPECT_EQ(200, profile.status);
  EXPECT_FALSE(profile.body.empty());
}

// Runs wgserve with `args` to completion, output discarded; returns its
// exit status (-1 when it did not exit normally) and, if `child` is set,
// stores the child's pid there.
int RunServe(const std::vector<std::string>& args, pid_t* child = nullptr) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(WGSERVE_BIN_PATH));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(null_fd, STDERR_FILENO);
    ::execv(WGSERVE_BIN_PATH, argv.data());
    _exit(127);
  }
  if (child != nullptr) *child = pid;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(WgserveSmokeTest, BadNumericFlagsExitWithUsage) {
  // Garbage and out-of-range values both exit 2 before any store is
  // built -- not a silent 0 from an unchecked strtoul.
  EXPECT_EQ(2, RunServe({"--pages", "400", "--workers", "abc"}));
  EXPECT_EQ(2, RunServe({"--pages", "400", "--admin-port", "70000"}));
}

TEST(WgserveSmokeTest, LocalBuildRemovesItsStoreDirectory) {
  pid_t child = -1;
  ASSERT_EQ(0, RunServe({"--pages", "400", "--requests", "200", "--workers",
                         "1"},
                        &child));
  ASSERT_GT(child, 0);
  EXPECT_FALSE(std::filesystem::exists(ServeStoreDir(child)));
}

#endif  // WGSERVE_BIN_PATH

}  // namespace
}  // namespace wg::obs
