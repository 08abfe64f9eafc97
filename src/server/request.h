#ifndef WG_SERVER_REQUEST_H_
#define WG_SERVER_REQUEST_H_

#include <chrono>
#include <vector>

#include "graph/webgraph.h"
#include "query/queries.h"
#include "util/status.h"

// The typed request/response vocabulary of the serving layer. A request is
// one unit of work for the QueryService worker pool: a primitive adjacency
// lookup (out- or in-neighbors), a k-hop neighborhood expansion, or one of
// the paper's six Table-3 complex queries.

namespace wg::server {

enum class RequestType {
  kOutNeighbors,   // out-links of `page` (forward representation)
  kInNeighbors,    // in-links of `page` (backward/WG^T representation)
  kKHop,           // pages within <= `k` forward hops of `page`
  kComplexQuery,   // Table-3 query `query_number` (1..6)
};

struct Request {
  RequestType type = RequestType::kOutNeighbors;
  PageId page = 0;       // kOutNeighbors / kInNeighbors / kKHop
  int k = 1;             // kKHop radius
  int query_number = 1;  // kComplexQuery: 1..6

  // Absolute deadline; default (epoch) means none. A request whose
  // deadline has passed when a worker picks it up -- or expires mid
  // k-hop expansion -- completes as kDeadlineExceeded.
  std::chrono::steady_clock::time_point deadline{};

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
};

inline const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kOutNeighbors: return "out-neighbors";
    case RequestType::kInNeighbors: return "in-neighbors";
    case RequestType::kKHop: return "k-hop";
    case RequestType::kComplexQuery: return "complex-query";
  }
  return "unknown";
}

enum class ResponseCode {
  kOk = 0,
  kRejected,          // bounded queue full (backpressure) or shut down
  kDeadlineExceeded,  // deadline passed before or during execution
  kError,             // executor returned a non-OK Status
};

struct Response {
  ResponseCode code = ResponseCode::kOk;
  Status status;               // non-OK iff kError
  std::vector<PageId> pages;   // sorted result set (neighbor/k-hop types)
  QueryResult query;           // kComplexQuery only
  double latency_seconds = 0;  // enqueue -> completion (kOk/kError/kDeadline)
  // Id of the request's trace when one was collected (sink-sampled or
  // /tracez ring active); 0 otherwise. Slow requests are looked up in
  // /tracez under this id.
  uint64_t trace_id = 0;
};

inline const char* ResponseCodeName(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk: return "ok";
    case ResponseCode::kRejected: return "rejected";
    case ResponseCode::kDeadlineExceeded: return "deadline-exceeded";
    case ResponseCode::kError: return "error";
  }
  return "unknown";
}

}  // namespace wg::server

#endif  // WG_SERVER_REQUEST_H_
