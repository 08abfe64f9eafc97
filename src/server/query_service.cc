#include "server/query_service.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>

#include "obs/trace.h"

namespace wg::server {

namespace {

bool DeadlinePassed(const Request& request,
                    std::chrono::steady_clock::time_point now) {
  return request.has_deadline() && now > request.deadline;
}

}  // namespace

QueryService::QueryService(const QueryContext& ctx,
                           const QueryServiceOptions& options)
    : ctx_(ctx),
      options_(options),
      queue_(std::max<size_t>(1, options.queue_capacity)) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Default();
  obs::Labels labels = {
      {"service", std::to_string(obs::NextInstanceId())}};
  // Bind (not assign): Counter assignment is value-semantic, so
  // `counter = registry.GetCounter(...)` would copy the registry cell's
  // value into the private cell and leave the registry series dead.
  auto bind = [&](obs::Counter& counter, const char* name) {
    obs::Labels with = labels;
    with.emplace_back("outcome", name);
    counter.Bind(registry, "wg_service_requests_total", with,
                 "Requests by admission/execution outcome");
  };
  bind(submitted_, "submitted");
  bind(completed_, "completed");
  bind(rejected_, "rejected");
  bind(timed_out_, "timed_out");
  bind(errors_, "error");
  queue_depth_ = registry.GetGauge("wg_service_queue_depth", labels,
                                   "Requests waiting at last snapshot");
  latency_us_ = registry.GetHistogram(
      "wg_service_latency_us", labels,
      "Enqueue-to-completion latency (microseconds)");
  size_t n = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    return;  // already shut down
  }
  queue_.Close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::future<Response> QueryService::Submit(Request request) {
  ++submitted_;
  Job job;
  job.request = request;
  job.enqueued = std::chrono::steady_clock::now();
  std::future<Response> future = job.promise.get_future();
  if (!queue_.TryPush(std::move(job))) {
    // Backpressure: refuse now instead of queueing unboundedly. The caller
    // sees kRejected and can retry with its own policy.
    ++rejected_;
    Response response;
    response.code = ResponseCode::kRejected;
    std::promise<Response> immediate;
    future = immediate.get_future();
    immediate.set_value(std::move(response));
  }
  return future;
}

void QueryService::WorkerLoop() {
  Job job;
  while (queue_.Pop(&job)) {
    Response response;
    auto now = std::chrono::steady_clock::now();
    if (DeadlinePassed(job.request, now)) {
      // Expired while waiting in the queue: don't waste the worker on it.
      response.code = ResponseCode::kDeadlineExceeded;
    } else {
      response = Execute(job.request);
    }
    auto done = std::chrono::steady_clock::now();
    response.latency_seconds =
        std::chrono::duration<double>(done - job.enqueued).count();
    // Slow-request attribution: latency here includes queue wait, which
    // the request's root span cannot see. Observations past the tracez
    // slow threshold capture the trace id as the latency histogram's
    // exemplar and pin the trace into the /tracez slow list.
    double latency_us = response.latency_seconds * 1e6;
    latency_us_.Record(latency_us);
    obs::Tracer& tracer = obs::Tracer::Global();
    if (response.trace_id != 0 && tracer.ring_enabled() &&
        latency_us >= tracer.ring().slow_threshold_us()) {
      latency_us_.SetExemplar(latency_us, response.trace_id);
      tracer.ring().MarkSlow(response.trace_id, latency_us);
    }
    switch (response.code) {
      case ResponseCode::kOk:
        ++completed_;
        break;
      case ResponseCode::kDeadlineExceeded:
        ++timed_out_;
        break;
      case ResponseCode::kError:
        ++errors_;
        break;
      case ResponseCode::kRejected:
        break;  // never produced by Execute
    }
    job.promise.set_value(std::move(response));
  }
}

namespace {

// Cache hits and misses of `repr` so far (zeros for none).
std::pair<uint64_t, uint64_t> CacheCounts(const GraphRepresentation* repr) {
  if (repr == nullptr) return {0, 0};
  return {repr->stats().cache_hits, repr->stats().cache_misses};
}

}  // namespace

void QueryService::SwapForward(std::shared_ptr<GraphRepresentation> forward) {
  std::lock_guard<std::mutex> lock(forward_mu_);
  auto [hits, misses] = CacheCounts(LiveForward());
  retired_cache_hits_ += hits - live_base_hits_;
  retired_cache_misses_ += misses - live_base_misses_;
  forward_override_ = std::move(forward);
  std::tie(live_base_hits_, live_base_misses_) = CacheCounts(LiveForward());
}

std::shared_ptr<GraphRepresentation> QueryService::CurrentForward() const {
  std::lock_guard<std::mutex> lock(forward_mu_);
  return forward_override_;
}

Response QueryService::Execute(const Request& request) const {
  // Root of the cross-layer request trace: spans opened below this frame
  // (repr access, cache miss, store read, pager load) nest under it when
  // the sampler selects this request. Covers both the worker-pool path
  // and inline callers.
  obs::Span trace(RequestTypeName(request.type), "service",
                  obs::Span::RootTag{});
  trace.AddArg("page", request.page);
  Response response;
  // Stamp before the span ends (it outlives this frame's locals only
  // until return): this is how WorkerLoop links the completed trace to
  // the latency it measures.
  response.trace_id = trace.trace_id();
  // Pin the forward representation once per request: a SwapForward racing
  // with this request flips later requests, never this one mid-flight.
  std::shared_ptr<GraphRepresentation> pinned = CurrentForward();
  GraphRepresentation* forward = pinned ? pinned.get() : ctx_.forward;
  if (DeadlinePassed(request, std::chrono::steady_clock::now())) {
    response.code = ResponseCode::kDeadlineExceeded;
    return response;
  }
  Status status;
  switch (request.type) {
    case RequestType::kOutNeighbors:
      if (forward == nullptr) {
        status = Status::InvalidArgument("no forward representation");
      } else {
        status = CollectNeighbors(forward, request.page, &response.pages);
      }
      break;
    case RequestType::kInNeighbors:
      if (ctx_.backward == nullptr) {
        status = Status::InvalidArgument("no backward representation");
      } else {
        status = CollectNeighbors(ctx_.backward, request.page, &response.pages);
      }
      break;
    case RequestType::kKHop:
      if (forward == nullptr) {
        status = Status::InvalidArgument("no forward representation");
      } else {
        status = ExecuteKHop(request, forward, &response);
      }
      break;
    case RequestType::kComplexQuery: {
      QueryContext ctx = ctx_;  // per-request view with the pinned forward
      ctx.forward = forward;
      Result<QueryResult> result = RunQuery(request.query_number, ctx);
      if (result.ok()) {
        response.query = std::move(result).value();
      } else {
        status = result.status();
      }
      break;
    }
  }
  if (response.code == ResponseCode::kOk && !status.ok()) {
    response.code = ResponseCode::kError;
    response.status = std::move(status);
  }
  return response;
}

Status QueryService::CollectNeighbors(GraphRepresentation* repr, PageId page,
                                      std::vector<PageId>* out) {
  std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
  LinkView links;
  WG_RETURN_IF_ERROR(cursor->Links(page, &links));
  links.AppendTo(out);
  return Status::OK();
}

Status QueryService::ExecuteKHop(const Request& request,
                                 GraphRepresentation* repr,
                                 Response* response) const {
  if (request.page >= repr->num_pages()) {
    return Status::OutOfRange("page id out of range");
  }
  // Level-synchronous BFS; result = every page reachable in 1..k hops,
  // start page excluded. The whole expansion streams through one cursor,
  // and each frontier is visited in locality-key order, so pages of one
  // S-Node supernode arrive back-to-back and are served from the cursor's
  // assembled zero-copy views.
  //
  // Visited set: one bit per page in a per-thread bitmap, grown to the
  // largest representation this thread has served and all-zero between
  // requests. Every bit a request sets is its start page or a page of its
  // result, and those bits are cleared on every exit, so a request
  // allocates and zeroes nothing proportional to num_pages.
  thread_local std::vector<uint64_t> seen;
  const size_t words = (repr->num_pages() + 63) / 64;
  if (seen.size() < words) seen.resize(words, 0);
  auto flip = [](PageId q) { seen[q >> 6] ^= uint64_t{1} << (q & 63); };
  auto visited = [](PageId q) { return (seen[q >> 6] >> (q & 63)) & 1; };

  std::unique_ptr<AdjacencyCursor> cursor = repr->NewCursor();
  std::vector<PageId>& result = response->pages;
  const size_t first = result.size();
  std::vector<PageId> frontier = {request.page};
  std::vector<PageId> next;
  LinkView links;
  Status status;
  bool expired = false;
  flip(request.page);
  for (int hop = 0; hop < request.k && !frontier.empty() && status.ok();
       ++hop) {
    // A deadline can expire mid-expansion; check once per level so a huge
    // neighborhood cannot hold a worker past its budget.
    if (DeadlinePassed(request, std::chrono::steady_clock::now())) {
      expired = true;
      break;
    }
    std::sort(frontier.begin(), frontier.end(), [repr](PageId a, PageId b) {
      return repr->LocalityKey(a) < repr->LocalityKey(b);
    });
    next.clear();
    for (PageId p : frontier) {
      status = cursor->Links(p, &links);
      if (!status.ok()) break;
      for (PageId q : links) {
        if (!visited(q)) {
          flip(q);
          next.push_back(q);
          result.push_back(q);
        }
      }
    }
    frontier.swap(next);
  }
  flip(request.page);
  for (size_t i = first; i < result.size(); ++i) flip(result[i]);
  if (!status.ok()) return status;
  if (expired) {
    result.clear();
    response->code = ResponseCode::kDeadlineExceeded;
    return Status::OK();
  }
  std::sort(result.begin(), result.end());
  return Status::OK();
}

ServiceMetrics QueryService::Snapshot() const {
  ServiceMetrics m;
  m.submitted = submitted_;
  m.completed = completed_;
  m.rejected = rejected_;
  m.timed_out = timed_out_;
  m.errors = errors_;
  m.queue_depth = queue_.size();
  queue_depth_.Set(static_cast<double>(m.queue_depth));
  m.p50_seconds = latency_us_.Quantile(0.5) * 1e-6;
  m.p99_seconds = latency_us_.Quantile(0.99) * 1e-6;
  {
    std::lock_guard<std::mutex> lock(forward_mu_);
    auto [hits, misses] = CacheCounts(LiveForward());
    m.cache_hits = retired_cache_hits_ + hits - live_base_hits_;
    m.cache_misses = retired_cache_misses_ + misses - live_base_misses_;
  }
  uint64_t lookups = m.cache_hits + m.cache_misses;
  m.cache_hit_rate = lookups == 0 ? 0.0
                                  : static_cast<double>(m.cache_hits) /
                                        static_cast<double>(lookups);
  return m;
}

std::string ServiceMetrics::ToString() const {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu completed=%llu rejected=%llu timed_out=%llu "
      "errors=%llu queue_depth=%zu p50=%.3fms p99=%.3fms "
      "cache_hits=%llu cache_misses=%llu hit_rate=%.3f",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(timed_out),
      static_cast<unsigned long long>(errors), queue_depth,
      p50_seconds * 1e3, p99_seconds * 1e3,
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), cache_hit_rate);
  return buf;
}

}  // namespace wg::server
