#include "obs/admin_http.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wg::obs {

namespace {

// Connections waiting for a worker past this are closed, not queued: an
// unbounded backlog on the introspection plane would be its own outage.
constexpr size_t kMaxPending = 64;
constexpr size_t kMaxRequestBytes = 8 << 10;

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// %xx and '+' decoding for paths and query components.
std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexVal(s[i + 1]) >= 0 &&
               HexVal(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexVal(s[i + 1]) * 16 +
                                      HexVal(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

// Full send with EINTR handling and SIGPIPE suppressed (a scraper that
// disconnected mid-response must not kill the serving process).
bool SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<size_t>(sent);
  }
  return true;
}

}  // namespace

uint64_t AdminRequest::IntParam(const std::string& key, uint64_t fallback,
                                uint64_t min, uint64_t max) const {
  auto it = params.find(key);
  if (it == params.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  uint64_t v = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') return fallback;
  if (v < min) v = min;
  if (v > max) v = max;
  return v;
}

AdminServer::AdminServer(AdminServerOptions options)
    : options_(std::move(options)) {}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Handle(const std::string& path, AdminHandler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  for (auto& [registered, fn] : handlers_) {
    if (registered == path) {
      fn = std::move(handler);
      return;
    }
  }
  handlers_.emplace_back(path, std::move(handler));
}

Status AdminServer::Start() {
  if (running_.load(std::memory_order_relaxed)) return Status::OK();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("admin: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("admin: bad bind address " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("admin: bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + " failed: " +
                           std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IOError("admin: listen failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IOError("admin: getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    closed_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  size_t n = std::max<size_t>(1, options_.num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  // Unblock accept(): shutdown makes a blocked accept return, close frees
  // the fd. The accept loop sees running_ == false and exits.
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    closed_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Connections still queued were never served; close them.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void AdminServer::AcceptLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;  // Stop() already claimed the listener
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_relaxed)) return;
      // Transient accept failure (EMFILE etc.): back off briefly.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    timeval tv;
    tv.tv_sec = options_.io_timeout_seconds;
    tv.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!closed_ && pending_.size() < kMaxPending) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      ::close(fd);  // overloaded: shed, don't queue
    }
  }
}

void AdminServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else if (closed_) {
        return;
      }
    }
    if (fd >= 0) ServeConnection(fd);
  }
}

void AdminServer::ServeConnection(int fd) {
  // Read until the end of the header block (we never accept bodies).
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // timeout, reset, or close
    request.append(buf, static_cast<size_t>(n));
  }

  AdminResponse response;
  AdminRequest parsed;
  size_t line_end = request.find("\r\n");
  size_t sp1 = request.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                        : request.find(' ', sp1 + 1);
  if (line_end == std::string::npos || sp2 == std::string::npos ||
      sp2 > line_end) {
    response.status = 400;
    response.body = "malformed request line\n";
  } else {
    parsed.method = request.substr(0, sp1);
    std::string target = request.substr(sp1 + 1, sp2 - sp1 - 1);
    size_t q = target.find('?');
    parsed.path = UrlDecode(target.substr(0, q));
    if (q != std::string::npos) {
      std::string query = target.substr(q + 1);
      size_t pos = 0;
      while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos) amp = query.size();
        std::string pair = query.substr(pos, amp - pos);
        size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          parsed.params[UrlDecode(pair)] = "";
        } else {
          parsed.params[UrlDecode(pair.substr(0, eq))] =
              UrlDecode(pair.substr(eq + 1));
        }
        pos = amp + 1;
      }
    }
    if (parsed.method != "GET" && parsed.method != "HEAD") {
      response.status = 405;
      response.body = "only GET is served here\n";
    } else {
      response = Dispatch(parsed);
    }
  }

  char header[256];
  int n = std::snprintf(header, sizeof(header),
                        "HTTP/1.1 %d %s\r\n"
                        "Content-Type: %s\r\n"
                        "Content-Length: %zu\r\n"
                        "Connection: close\r\n\r\n",
                        response.status, StatusText(response.status),
                        response.content_type.c_str(), response.body.size());
  bool ok = SendAll(fd, header, static_cast<size_t>(n));
  if (ok && parsed.method != "HEAD") {
    SendAll(fd, response.body.data(), response.body.size());
  }
  // Count before the close: a client that has read its response must
  // already see it in requests_served().
  requests_.fetch_add(1, std::memory_order_relaxed);
  ::close(fd);
}

AdminResponse AdminServer::Dispatch(const AdminRequest& request) {
  AdminHandler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    for (const auto& [path, fn] : handlers_) {
      if (path == request.path) {
        handler = fn;
        break;
      }
    }
  }
  if (handler) return handler(request);
  if (request.path == "/") return IndexPage();
  AdminResponse response = IndexPage();
  response.status = 404;
  return response;
}

AdminResponse AdminServer::IndexPage() const {
  AdminResponse response;
  response.body = "wgserve admin endpoints:\n";
  std::lock_guard<std::mutex> lock(handlers_mu_);
  for (const auto& entry : handlers_) {
    response.body += "  " + entry.first + "\n";
  }
  return response;
}

void RegisterIntrospection(AdminServer& server, MetricRegistry& registry) {
  server.Handle("/metrics", [&registry](const AdminRequest&) {
    AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry.PrometheusText();
    return response;
  });
  server.Handle("/metrics.json", [&registry](const AdminRequest&) {
    AdminResponse response;
    response.content_type = "application/json";
    response.body = registry.JsonText();
    return response;
  });
  server.Handle("/tracez", [](const AdminRequest&) {
    AdminResponse response;
    Tracer& tracer = Tracer::Global();
    if (!tracer.ring_enabled()) {
      response.status = 503;
      response.body = "tracez ring disabled (serve with --admin-port)\n";
      return response;
    }
    response.body = tracer.ring().RenderText();
    return response;
  });
  server.Handle("/pprof/profile", [](const AdminRequest& request) {
    AdminResponse response;
    Profiler& profiler = Profiler::Global();
    if (!profiler.running()) {
      response.status = 503;
      response.body =
          "profiler not running (serve with --profile-hz > 0)\n";
      return response;
    }
    uint64_t seconds = request.IntParam("seconds", 2, 1, 30);
    // Window extraction from the always-on sample ring: no start/stop,
    // just two sequence reads around a sleep. The sleep pins one admin
    // worker, which is why the pool has more than one.
    uint64_t begin = profiler.samples();
    std::this_thread::sleep_for(std::chrono::seconds(seconds));
    response.body = profiler.Collapsed(begin, profiler.samples());
    if (response.body.empty()) {
      response.body =
          "# no samples in window (process idle or rate too low)\n";
    }
    return response;
  });
}

}  // namespace wg::obs
