#ifndef WG_SERVER_SERVER_H_
#define WG_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/admin_http.h"
#include "obs/metrics.h"
#include "server/query_service.h"
#include "snode/snode_repr.h"
#include "util/status.h"
#include "version/snapshot.h"

// The serving process around a QueryService: where the representations
// come from (a snapshot directory, or S-Node representations the caller
// built), the generation poller with auto-compaction and degraded mode,
// the health surfaces (wg_degraded, --health-file, /healthz), the admin
// plane, tracing and profiling set-up, and the periodic metrics dump.
// wgserve is flag parsing plus a closed-loop request loop over this class.
//
// The lines the server prints to stdout and stderr (admin port, flips,
// auto-compaction, degraded/recovered, the closing report) are wgserve's
// output format; probes and scripts parse them.

namespace wg::server {

// One field per wgserve flag the server owns.
struct ServerOptions {
  std::string snapshot;               // --snapshot (empty: caller's reprs)
  uint64_t auto_compact_backlog = 0;  // --auto-compact-backlog (0: off)
  size_t workers = 4;                 // --workers
  size_t queue = 256;                 // --queue
  size_t buffer_bytes = 4 << 20;      // --buffer
  int decode_ahead = 0;               // --decode-ahead
  int admin_port = -1;                // --admin-port (-1: no admin plane)
  int profile_hz = 0;                 // --profile-hz (0: no profiler)
  double slow_us = 10000;             // --slow-us
  std::string health_file;            // --health-file
  std::string metrics_out;            // --metrics-out
  int metrics_interval = 10;          // --metrics-interval (0: exit only)
  std::string trace_out;              // --trace-out
  uint64_t trace_sample = 16;         // --trace-sample
};

class Server {
 public:
  // Opens options.snapshot, verifying every generation before install,
  // prints its "snapshot ..." line and starts serving the live generation
  // (forward only). Call StartPoller() to follow later generations.
  static Result<std::unique_ptr<Server>> OpenSnapshot(
      const ServerOptions& options);

  // Starts serving S-Node representations the caller built. `forward`,
  // `backward`, and the graph/corpus/index/pagerank `query` points at
  // (its forward and backward are replaced) must outlive the server.
  static Result<std::unique_ptr<Server>> ServeBuilt(
      const ServerOptions& options, SNodeRepr* forward, SNodeRepr* backward,
      const QueryContext& query);

  ~Server();  // stops every thread, prints nothing

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  QueryService& service() { return *service_; }
  size_t num_pages() const;
  // The admin plane's bound port; 0 without one.
  uint16_t admin_port() const;

  // Snapshot mode: runs Poll() every 100 ms on a background thread until
  // Drain(). A no-op when serving the caller's representations.
  void StartPoller();

  // One poller tick: tail the delta log and compact once the backlog
  // reaches options.auto_compact_backlog (a failed compaction is not
  // retried for 50 ticks, ~5 s), then Refresh and flip to a new
  // generation, or hold the live one in degraded mode when the new one
  // fails verification. Call it from one thread at a time: the poller's,
  // or a test's that never started it.
  void Poll();

  // Stops the poller and drains the service: every admitted request has
  // completed when this returns.
  void Drain();

  // Drain(), then prints the closing report (pinned cache entries, the
  // service metrics, admin requests served, trace and metrics outputs)
  // and stops everything else the server started. Returns the first
  // failure of the final trace close or metrics dump.
  Status Stop();

 private:
  explicit Server(const ServerOptions& options);

  Status Start(const QueryContext& ctx);
  void SetHealth(uint64_t generation, bool degraded,
                 const std::string& reason);
  std::shared_ptr<SNodeRepr> ServingRepr() const;
  obs::AdminResponse Healthz() const;
  obs::AdminResponse Statusz() const;
  Status DumpMetrics() const;
  void StopThreads();

  const ServerOptions options_;
  const std::chrono::steady_clock::time_point start_time_;

  // Exactly one of these serves: the snapshot manager's live generation,
  // or the caller's representations.
  std::unique_ptr<version::SnapshotManager> manager_;
  SNodeRepr* forward_ = nullptr;
  SNodeRepr* backward_ = nullptr;

  std::unique_ptr<QueryService> service_;

  // Health: written by the poller, read by /healthz and the health file.
  // wg_degraded is 1 while CURRENT names a generation this process
  // refused to install and the last good one keeps serving.
  mutable std::mutex health_mu_;
  uint64_t generation_ = 0;  // live generation (0 outside snapshot mode)
  bool degraded_ = false;
  std::string degraded_reason_;  // refused-flip error; empty when healthy
  obs::Gauge degraded_gauge_;

  int compact_backoff_ = 0;  // poller ticks left before compacting again

  std::unique_ptr<obs::AdminServer> admin_;
  bool ring_enabled_ = false;

  std::atomic<bool> stop_poller_{false};
  std::thread poller_;
  std::atomic<bool> stop_metrics_writer_{false};
  std::thread metrics_writer_;
};

}  // namespace wg::server

#endif  // WG_SERVER_SERVER_H_
