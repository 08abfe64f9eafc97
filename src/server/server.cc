#include "server/server.h"

#include <cstdio>
#include <utility>

#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/file.h"
#include "storage/integrity.h"

namespace wg::server {

namespace {

// A failed auto-compaction waits this many poller ticks (~5 s) before the
// next attempt, so a full disk or a corrupt log cannot hot-loop it.
constexpr int kCompactBackoffTicks = 50;

// Write-temp-then-rename: probes and scrapers reading `path` see either
// the previous complete dump or the new complete dump, never a torn one,
// and a crash mid-write leaves the previous dump intact. RenameFile goes
// through the Env seam, so fault-injection tests see these writes too.
Status WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return Status::IOError("open " + tmp + " failed");
  bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    RemoveFileIfExists(tmp);
    return Status::IOError("write " + tmp + " failed");
  }
  return RenameFile(tmp, path);
}

bool IsJsonPath(const std::string& path) {
  return path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
}

// First line of both the health file and /healthz:
//   ok generation=7
//   degraded generation=7 reason=<text>
std::string FormatHealthLine(uint64_t generation, bool degraded,
                             const std::string& reason) {
  std::string line = degraded ? "degraded" : "ok";
  line += " generation=" + std::to_string(generation);
  if (degraded && !reason.empty()) line += " reason=" + reason;
  return line;
}

SNodeBuildOptions StoreOptions(const ServerOptions& options) {
  SNodeBuildOptions build;
  build.buffer_bytes = options.buffer_bytes;
  build.decode_ahead_sections = options.decode_ahead;
  return build;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options), start_time_(std::chrono::steady_clock::now()) {
  // Bound in every mode so a scraper can always tell "healthy" from
  // "series not wired"; outside snapshot mode it never leaves 0.
  degraded_gauge_.Bind(obs::MetricRegistry::Default(), "wg_degraded", {},
                       "1 while serving a stale generation because the "
                       "newest failed verification");
  // Materialize the wg_integrity_* series at zero: a dashboard must be
  // able to tell "no corruption seen" from "counters not wired".
  IntegrityCounters::Get();
}

Server::~Server() { StopThreads(); }

Result<std::unique_ptr<Server>> Server::OpenSnapshot(
    const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(options));
  version::SnapshotOptions vopts;
  vopts.build = StoreOptions(options);
  vopts.store.mmap = options.mmap;
  // Serving tier: never install a generation whose pack bytes don't
  // match their manifest CRCs; keep serving the last good one instead.
  vopts.verify_before_install = true;
  WG_ASSIGN_OR_RETURN(server->manager_,
                      version::SnapshotManager::Open(options.snapshot, vopts));
  version::GenerationPtr generation = server->manager_->current();
  server->SetHealth(generation->manifest.generation, false, "");
  std::printf("snapshot %s: generation %llu, %zu pages, %llu links, "
              "%llu pending deltas\n",
              options.snapshot.c_str(),
              static_cast<unsigned long long>(generation->manifest.generation),
              generation->repr->num_pages(),
              static_cast<unsigned long long>(generation->repr->num_edges()),
              static_cast<unsigned long long>(
                  server->manager_->pending_records()));
  WG_RETURN_IF_ERROR(server->Start(QueryContext()));
  // The live generation is installed through SwapForward, so later flips
  // follow the same path.
  server->service_->SwapForward(version::ReprOf(generation));
  return server;
}

Result<std::unique_ptr<Server>> Server::ServeBuilt(
    const ServerOptions& options, SNodeRepr* forward, SNodeRepr* backward,
    const QueryContext& query) {
  std::unique_ptr<Server> server(new Server(options));
  server->forward_ = forward;
  server->backward_ = backward;
  server->SetHealth(0, false, "");
  QueryContext ctx = query;
  ctx.forward = forward;
  ctx.backward = backward;
  WG_RETURN_IF_ERROR(server->Start(ctx));
  return server;
}

Status Server::Start(const QueryContext& ctx) {
  obs::Tracer& tracer = obs::Tracer::Global();
  if (!options_.trace_out.empty()) {
    tracer.set_sample_interval(options_.trace_sample);
    WG_RETURN_IF_ERROR(tracer.OpenSink(options_.trace_out));
    std::printf("tracing 1-in-%llu requests to %s\n",
                static_cast<unsigned long long>(options_.trace_sample),
                options_.trace_out.c_str());
  }
  if (options_.admin_port >= 0) {
    // The /tracez ring: every request collects its span tree in memory;
    // the ring keeps the last N plus everything over the slow threshold.
    obs::TraceRingOptions ring_opts;
    ring_opts.slow_threshold_us = options_.slow_us;
    tracer.EnableRing(ring_opts);
    ring_enabled_ = true;
  }
  if (options_.profile_hz > 0) {
    WG_RETURN_IF_ERROR(obs::Profiler::Global().Start(options_.profile_hz));
  }

  QueryServiceOptions sopts;
  sopts.num_workers = options_.workers;
  sopts.queue_capacity = options_.queue;
  service_ = std::make_unique<QueryService>(ctx, sopts);

  if (options_.admin_port >= 0) {
    obs::AdminServerOptions aopts;
    aopts.port = static_cast<uint16_t>(options_.admin_port);
    admin_ = std::make_unique<obs::AdminServer>(aopts);
    obs::RegisterIntrospection(*admin_, obs::MetricRegistry::Default());
    admin_->Handle("/healthz",
                   [this](const obs::AdminRequest&) { return Healthz(); });
    admin_->Handle("/statusz",
                   [this](const obs::AdminRequest&) { return Statusz(); });
    WG_RETURN_IF_ERROR(admin_->Start());
    std::printf("admin: listening on 127.0.0.1:%u\n", admin_->port());
    std::fflush(stdout);  // piped probes parse this line before scraping
  }

  if (!options_.metrics_out.empty() && options_.metrics_interval > 0) {
    metrics_writer_ = std::thread([this] {
      auto last = std::chrono::steady_clock::now();
      while (!stop_metrics_writer_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        auto now = std::chrono::steady_clock::now();
        if (now - last < std::chrono::seconds(options_.metrics_interval)) {
          continue;
        }
        last = now;
        Status written = DumpMetrics();
        if (!written.ok()) {
          std::fprintf(stderr, "warning: metrics dump: %s\n",
                       written.ToString().c_str());
        }
      }
    });
  }
  return Status::OK();
}

size_t Server::num_pages() const {
  if (manager_ != nullptr) return manager_->current()->repr->num_pages();
  return forward_->num_pages();
}

uint16_t Server::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

void Server::StartPoller() {
  if (manager_ == nullptr || poller_.joinable()) return;
  poller_ = std::thread([this] {
    while (!stop_poller_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      Poll();
    }
  });
}

void Server::Poll() {
  if (manager_ == nullptr) return;
  if (options_.auto_compact_backlog > 0) {
    // Fold the delta backlog in-process once it crosses the threshold.
    // Compact() installs the new generation in this manager, so the
    // Refresh below sees it and runs the exact flip path an external
    // `wgtool compact` would take. Tail the on-disk log first: the backlog
    // usually grows in another process (wgtool delta-apply), invisible to
    // this manager's record count until tailed. A failed tail only leaves
    // the count stale for this tick.
    if (compact_backoff_ > 0) {
      --compact_backoff_;
    } else if (manager_->TailLog().ok() &&
               manager_->pending_records() >= options_.auto_compact_backlog) {
      uint64_t backlog = manager_->pending_records();
      auto compacted = manager_->Compact();
      if (!compacted.ok()) {
        compact_backoff_ = kCompactBackoffTicks;
        std::fprintf(stderr, "auto-compact failed, backing off: %s\n",
                     compacted.status().ToString().c_str());
      } else {
        std::printf(
            "auto-compact: folded %llu pending records into generation "
            "%llu\n",
            static_cast<unsigned long long>(backlog),
            static_cast<unsigned long long>(
                compacted.value()->manifest.generation));
      }
    }
  }
  uint64_t live;
  bool degraded;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    live = generation_;
    degraded = degraded_;
  }
  auto refreshed = manager_->Refresh();
  if (!refreshed.ok()) {
    // A non-corruption failure is a mid-publish race; retry next tick.
    // Corruption means the new generation failed its pre-install scrub:
    // hold the last good one and flag degraded.
    if (refreshed.status().code() == StatusCode::kCorruption && !degraded) {
      SetHealth(live, true, refreshed.status().ToString());
      std::fprintf(stderr,
                   "degraded: keeping generation %llu; refused flip: %s\n",
                   static_cast<unsigned long long>(live),
                   refreshed.status().ToString().c_str());
    }
    return;
  }
  if (degraded) {
    SetHealth(live, false, "");
    std::printf("recovered: flip path healthy again\n");
  }
  const version::GenerationPtr& next = refreshed.value();
  uint64_t generation = next->manifest.generation;
  if (generation == live) return;
  // Re-publish the health line so probes see the new generation.
  SetHealth(generation, false, "");
  service_->SwapForward(version::ReprOf(next));
  std::printf("flipped to generation %llu (%zu pages, %llu links)\n",
              static_cast<unsigned long long>(generation),
              next->repr->num_pages(),
              static_cast<unsigned long long>(next->repr->num_edges()));
}

void Server::Drain() {
  if (poller_.joinable()) {
    stop_poller_.store(true, std::memory_order_relaxed);
    poller_.join();
  }
  if (service_ != nullptr) service_->Shutdown();
}

Status Server::Stop() {
  Drain();
  // Every request's views were dropped with its response, so no cache
  // entry may still be pinned; nonzero here means a leaked pin.
  if (manager_ != nullptr) {
    version::GenerationPtr generation = manager_->current();
    std::printf("pinned cache entries after drain: %zu (generation %llu)\n",
                generation->repr->PinnedCacheEntries(),
                static_cast<unsigned long long>(
                    generation->manifest.generation));
  } else {
    std::printf("pinned cache entries after drain: %zu fwd, %zu bwd\n",
                forward_->PinnedCacheEntries(),
                backward_->PinnedCacheEntries());
  }
  std::printf("\n%s\n", service_->Snapshot().ToString().c_str());
  if (admin_ != nullptr) {
    std::printf("admin: served %llu requests\n",
                static_cast<unsigned long long>(admin_->requests_served()));
  }
  StopThreads();

  obs::Tracer& tracer = obs::Tracer::Global();
  if (!options_.trace_out.empty()) {
    uint64_t spans = tracer.spans_written();
    WG_RETURN_IF_ERROR(tracer.Close());
    std::printf("trace: %llu spans -> %s\n",
                static_cast<unsigned long long>(spans),
                options_.trace_out.c_str());
  }
  if (!options_.metrics_out.empty()) {
    WG_RETURN_IF_ERROR(DumpMetrics());
    std::printf("metrics: %zu series -> %s (%s)\n",
                obs::MetricRegistry::Default().num_series(),
                options_.metrics_out.c_str(),
                IsJsonPath(options_.metrics_out) ? "json" : "prometheus");
  }
  return Status::OK();
}

void Server::StopThreads() {
  Drain();
  if (admin_ != nullptr) admin_->Stop();
  if (options_.profile_hz > 0) obs::Profiler::Global().Stop();
  if (ring_enabled_) {
    obs::Tracer::Global().DisableRing();
    ring_enabled_ = false;
  }
  if (metrics_writer_.joinable()) {
    stop_metrics_writer_.store(true, std::memory_order_relaxed);
    metrics_writer_.join();
  }
}

void Server::SetHealth(uint64_t generation, bool degraded,
                       const std::string& reason) {
  degraded_gauge_.Set(degraded ? 1 : 0);
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    generation_ = generation;
    degraded_ = degraded;
    degraded_reason_ = degraded ? reason : "";
  }
  if (options_.health_file.empty()) return;
  Status written =
      WriteFileAtomic(options_.health_file,
                      FormatHealthLine(generation, degraded, reason) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "warning: health file: %s\n",
                 written.ToString().c_str());
  }
}

// The representation the introspection plane reports on: the live
// generation in snapshot mode (the aliasing pointer keeps it pinned for
// one handler call), the caller's forward representation otherwise.
std::shared_ptr<SNodeRepr> Server::ServingRepr() const {
  if (manager_ != nullptr) {
    version::GenerationPtr generation = manager_->current();
    return std::shared_ptr<SNodeRepr>(generation, generation->repr.get());
  }
  return std::shared_ptr<SNodeRepr>(std::shared_ptr<SNodeRepr>(), forward_);
}

obs::AdminResponse Server::Healthz() const {
  obs::AdminResponse response;
  bool degraded;
  std::string reason;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    degraded = degraded_;
    reason = degraded_reason_;
    generation = generation_;
  }
  IntegrityCounters& integrity = IntegrityCounters::Get();
  std::string& body = response.body;
  body = FormatHealthLine(generation, degraded, reason);
  body += "\ngeneration: " + std::to_string(generation);
  body += degraded ? "\ndegraded: 1" : "\ndegraded: 0";
  body += "\nreason: " + (reason.empty() ? std::string("-") : reason);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\nquarantined_sections: %zu\n"
                "checksum_failures: %llu\n"
                "sigbus_faults: %llu\n"
                "mmap_fallbacks: %llu\n",
                ServingRepr()->QuarantinedSectionCount(),
                static_cast<unsigned long long>(integrity.checksum_failures),
                static_cast<unsigned long long>(integrity.sigbus_faults),
                static_cast<unsigned long long>(integrity.mmap_fallbacks));
  body += buf;
  if (degraded) response.status = 503;
  return response;
}

obs::AdminResponse Server::Statusz() const {
  obs::AdminResponse response;
  double uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_time_)
                      .count();
  std::string& body = response.body;
  char buf[256];
  body += "wgserve statusz\n";
  std::snprintf(buf, sizeof(buf), "uptime_s: %.1f\n", uptime);
  body += buf;
  std::snprintf(buf, sizeof(buf), "build: %s, C++ %ld\n", __VERSION__,
                static_cast<long>(__cplusplus));
  body += buf;
  std::snprintf(buf, sizeof(buf), "mode: %s\n",
                manager_ != nullptr ? "snapshot" : "local-build");
  body += buf;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    std::snprintf(buf, sizeof(buf), "generation: %llu\n",
                  static_cast<unsigned long long>(generation_));
    body += buf;
  }
  std::shared_ptr<SNodeRepr> repr = ServingRepr();
  std::snprintf(buf, sizeof(buf), "pages: %zu\nedges: %llu\n",
                repr->num_pages(),
                static_cast<unsigned long long>(repr->num_edges()));
  body += buf;
  std::snprintf(
      buf, sizeof(buf),
      "cache_bytes: %zu / %zu (%.1f%%)\npinned_entries: %zu\n",
      repr->buffer_bytes_used(), repr->buffer_budget(),
      repr->buffer_budget() == 0
          ? 0.0
          : 100.0 * static_cast<double>(repr->buffer_bytes_used()) /
                static_cast<double>(repr->buffer_budget()),
      repr->PinnedCacheEntries());
  body += buf;
  std::snprintf(buf, sizeof(buf), "workers: %zu\nqueue_capacity: %zu\n",
                service_->num_workers(), options_.queue);
  body += buf;
  obs::Profiler& profiler = obs::Profiler::Global();
  std::snprintf(buf, sizeof(buf), "profiler: %s, %d hz, %llu samples\n",
                profiler.running() ? "on" : "off", profiler.hz(),
                static_cast<unsigned long long>(profiler.samples()));
  body += buf;
  obs::Tracer& tracer = obs::Tracer::Global();
  std::snprintf(
      buf, sizeof(buf), "tracez: %s, %llu traces\n",
      tracer.ring_enabled() ? "on" : "off",
      static_cast<unsigned long long>(tracer.ring().traces_seen()));
  body += buf;
  std::snprintf(buf, sizeof(buf), "metric_series: %zu\n",
                obs::MetricRegistry::Default().num_series());
  body += buf;
  return response;
}

Status Server::DumpMetrics() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  return WriteFileAtomic(options_.metrics_out,
                         IsJsonPath(options_.metrics_out)
                             ? registry.JsonText()
                             : registry.PrometheusText());
}

}  // namespace wg::server
