#ifndef WG_SERVER_QUERY_SERVICE_H_
#define WG_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "query/queries.h"
#include "server/bounded_queue.h"
#include "server/request.h"

// The serving layer over the S-Node store: a fixed-size worker pool pulls
// typed requests (server/request.h) off a bounded MPMC queue and executes
// them concurrently against a shared QueryContext. Admission control is
// explicit -- when the queue is full, Submit completes the request
// immediately with kRejected rather than queueing unboundedly -- and every
// request may carry a deadline that is honored both at dequeue and during
// k-hop expansion.
//
// Thread-safety contract: the representations in the QueryContext must be
// safe for concurrent reads. SNodeRepr is (sharded singleflight cache,
// atomic stats; see snode/snode_repr.h); the baseline schemes are not, so
// serve them with num_workers = 1.

namespace wg::server {

struct QueryServiceOptions {
  size_t num_workers = 4;
  size_t queue_capacity = 256;
};

// A point-in-time view of a QueryService. The service's counters and
// latency distribution live in the metric registry, so the same numbers
// are exported by MetricRegistry dumps.
struct ServiceMetrics {
  uint64_t submitted = 0;
  uint64_t completed = 0;   // executed to kOk
  uint64_t rejected = 0;    // refused at admission (queue full / shut down)
  uint64_t timed_out = 0;   // deadline exceeded
  uint64_t errors = 0;      // executor returned non-OK
  size_t queue_depth = 0;   // requests waiting at snapshot time

  // Enqueue-to-completion latency quantiles, read from the
  // wg_service_latency_us histogram (obs::Histogram's power-of-two
  // bound: a true quantile t >= 1us reports as v with t <= v <= 2t).
  double p50_seconds = 0;
  double p99_seconds = 0;

  // Decoded-graph cache behaviour of the forward representation (the
  // serving hot path), summed over every generation it has served, each
  // for as long as it was installed; hit_rate is hits / (hits + misses).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0;

  std::string ToString() const;
};

class QueryService {
 public:
  // `ctx` must outlive the service. `ctx.forward` is required; `backward`
  // is needed for kInNeighbors, and corpus/index/pagerank for
  // kComplexQuery (requests needing an absent component fail kError).
  QueryService(const QueryContext& ctx, const QueryServiceOptions& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Non-blocking admission. The future resolves when a worker completes
  // the request -- or immediately with kRejected under backpressure.
  std::future<Response> Submit(Request request);

  // Executes `request` inline on the calling thread, bypassing the queue
  // and pool. This is the single-threaded reference path: tests and
  // benchmarks compare concurrent Submit results against it.
  Response Execute(const Request& request) const;

  // Atomically replaces the forward representation for all requests that
  // *start* after this call; in-flight requests keep the representation
  // they pinned at entry (the shared_ptr holds it alive until they
  // drain). This is how the versioned snapshot store flips a serving
  // process between generations without stopping the world -- pass
  // version::ReprOf(generation) so the whole generation (repr + store +
  // manifest) lives as long as the last request using it. Passing nullptr
  // reverts to the constructor-supplied ctx.forward.
  void SwapForward(std::shared_ptr<GraphRepresentation> forward);

  // The forward override currently installed (nullptr when serving the
  // constructor-supplied representation).
  std::shared_ptr<GraphRepresentation> CurrentForward() const;

  // Stops admission, drains queued requests, and joins the workers.
  // Idempotent; also run by the destructor.
  void Shutdown();

  ServiceMetrics Snapshot() const;

  size_t num_workers() const { return workers_.size(); }

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();
  // The forward representation requests start on; forward_mu_ held.
  GraphRepresentation* LiveForward() const {
    return forward_override_ ? forward_override_.get() : ctx_.forward;
  }
  static Status CollectNeighbors(GraphRepresentation* repr, PageId page,
                                 std::vector<PageId>* out);
  Status ExecuteKHop(const Request& request, GraphRepresentation* repr,
                     Response* response) const;

  QueryContext ctx_;
  // Forward-representation hot swap (SwapForward). Requests pin a copy at
  // entry, so an old generation drains naturally after a flip.
  mutable std::mutex forward_mu_;
  std::shared_ptr<GraphRepresentation> forward_override_;
  // Cache counters across flips, guarded by forward_mu_: what the
  // swapped-out representations counted while installed, and the live
  // one's counters when it was installed. Hits an old generation takes
  // while its in-flight requests drain after a flip are not counted.
  uint64_t retired_cache_hits_ = 0;
  uint64_t retired_cache_misses_ = 0;
  uint64_t live_base_hits_ = 0;
  uint64_t live_base_misses_ = 0;
  QueryServiceOptions options_;
  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};

  // Registry-backed outcome counters and latency distribution: one
  // wg_service_requests_total{service=<id>,outcome=...} series each plus
  // wg_service_latency_us{service=<id>}, bound in the constructor.
  // Snapshot() is a thin view over these cells; the metric registry
  // exposition sees the same numbers.
  obs::Counter submitted_;
  obs::Counter completed_;
  obs::Counter rejected_;
  obs::Counter timed_out_;
  obs::Counter errors_;
  obs::Gauge queue_depth_;
  obs::Histogram latency_us_;
};

}  // namespace wg::server

#endif  // WG_SERVER_QUERY_SERVICE_H_
